//! Smoke test of the merged Figures 6–8 regenerator: each `--against`
//! prints the header and the row count of the table it replaces.

use std::process::Command;

#[test]
fn each_comparator_prints_its_table() {
    let cases = [
        (
            "lapack",
            "type n deflation t_forkjoin(MKL model) t_taskflow speedup",
            3,
        ),
        (
            "scalapack",
            "type n deflation t_levelpar(ScaLAPACK model) t_taskflow speedup",
            3,
        ),
        (
            "mrrr",
            "type n deflation t_mrrr t_dc t_mrrr/t_dc winner",
            15,
        ),
    ];
    for (against, header, rows) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fig6_8_comparators"))
            .args(["--against", against, "--sizes", "64", "--threads", "2"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{against}: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cells: Vec<&str> = lines[0].split('|').map(str::trim).collect();
        assert_eq!(cells.join(" ").trim(), header, "{against}");
        // Header, separator, one row per matrix type at the one size.
        assert_eq!(lines.len(), 2 + rows, "{against}:\n{text}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_fig6_8_comparators"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "no --against is a usage error");
}
