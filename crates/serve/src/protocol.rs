//! Wire protocol: request parsing and response serialization.
//!
//! One JSON object per line in each direction. Requests are parsed with
//! the runtime's `jsonv` recursive-descent parser; responses are written
//! with the hand-rolled serializers below (Rust's shortest-round-trip
//! `{}` float formatting, so eigenvalues survive the wire bit-exactly).
//!
//! Request grammar (members beyond these are ignored):
//!
//! ```text
//! {"op":"solve","id":ID,"matrix":M, "mode":MODE?, "priority":"high"?,
//!  "vectors":bool?, "check":bool?, "trace":bool?}
//! {"op":"batch","id":ID,"problems":[{"matrix":M,"mode":MODE?}, ...],
//!  "priority":"high"?, "check":bool?}
//! {"op":"cancel","id":ID}
//! {"op":"metrics"}   {"op":"ping"}   {"op":"shutdown"}
//!
//! M    = {"type":K,"n":N,"seed":S?}        (generated test matrix)
//!      | {"d":[...],"e":[...]}             (inline tridiagonal)
//! MODE = "full" (default) | "values" | {"subset":[il,iu]}
//! ```
//!
//! The parser refuses, as `bad-request`, a matrix spec that cannot be
//! built: a type outside 1..=15, a generated `n` of 0, an empty inline
//! `d`, or `len(e) != len(d) - 1`; and, as `nonfinite`, an inline matrix
//! with an infinite entry (a literal such as `1e999`), which no solver
//! accepts. `solve` and `batch` parse to one [`Request::Solve`]: a problem
//! list plus the reply's shape. The server refuses, as `oversized`, an
//! order over its `max_n`, and `"check":true` on a problem over n = 1024
//! that returns vectors (any mode but `"values"`). The parser also refuses,
//! as `bad-request`, `"vectors":true` on a `"values"` solve: that reply
//! has no vectors to carry.
//!
//! What a reply computes: the daemon asks the library for eigenvectors
//! only when the reply carries them (`"vectors":true`) or `"check":true`
//! needs them for `orth`/`residual`. Otherwise a `"full"` problem — every
//! unchecked `batch` member among them — runs the values-only solve. Such
//! a reply's `values` and `deflation` are the values-only solve's: they
//! can differ from a vectors solve's in the last bits, and both meet the
//! same accuracy gates. A `"values"` or `{"subset":[il,iu]}` problem, and
//! a reply with vectors or a check, runs the mode as sent.
//!
//! Responses: `{"id":ID,"ok":true, ...}` on success, or
//! `{"id":ID,"ok":false,"error":{"code":C,"message":S}}` with `C` one of
//! `parse`, `bad-request`, `unknown-op`, `oversized`, `busy`,
//! `cancelled`, `nonfinite`, `invalid-range`, `numerical`, `internal`.
//! A `batch` reply is `{"id":ID,"ok":true,"results":[...]}` over the same
//! per-problem envelopes without `id`. The serializers append to the one
//! `String` a reply is written from.

use dcst_core::{DcError, SolveMode};
use dcst_runtime::jsonv::{self, Json};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::SymTridiag;
use std::fmt::Write;

/// Typed protocol error: a machine-readable code plus a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    pub code: &'static str,
    pub message: String,
}

impl WireError {
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    pub fn bad(message: impl Into<String>) -> Self {
        WireError::new("bad-request", message)
    }
}

/// Map a solver error onto the wire's error-code vocabulary.
pub fn dc_error_code(e: &DcError) -> &'static str {
    match e {
        DcError::NonFinite => "nonfinite",
        DcError::InvalidRange { .. } => "invalid-range",
        DcError::Cancelled => "cancelled",
        _ => "numerical",
    }
}

/// One problem of a solve or batch request.
#[derive(Clone, Debug)]
pub struct Problem {
    pub matrix: MatrixSpec,
    pub mode: SolveMode,
}

/// The matrix payload: a generator reference or inline data. The parser
/// admits only specs that build, so [`MatrixSpec::build`] cannot fail.
#[derive(Clone, Debug)]
pub enum MatrixSpec {
    Generated { ty: MatrixType, n: usize, seed: u64 },
    Inline { d: Vec<f64>, e: Vec<f64> },
}

impl MatrixSpec {
    /// The matrix order, known before materialization — the oversized
    /// admission guard must reject without allocating O(n²).
    pub fn n(&self) -> usize {
        match self {
            MatrixSpec::Generated { n, .. } => *n,
            MatrixSpec::Inline { d, .. } => d.len(),
        }
    }

    /// Materialize the tridiagonal matrix.
    pub fn build(&self) -> SymTridiag {
        match self {
            MatrixSpec::Generated { ty, n, seed } => ty.generate(*n, *seed),
            MatrixSpec::Inline { d, e } => SymTridiag {
                d: d.clone(),
                e: e.clone(),
            },
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// `solve` and `batch`: they run alike and differ only in the reply.
    Solve(SolveRequest),
    Cancel {
        id: u64,
    },
    Metrics,
    Ping,
    Shutdown,
}

/// A `solve` (one problem) or a `batch` (one or more).
#[derive(Clone, Debug)]
pub struct SolveRequest {
    pub id: u64,
    pub problems: Vec<Problem>,
    pub priority: bool,
    pub check: bool,
    /// Reply with a `"results"` list of untagged envelopes, one a problem,
    /// rather than with the one problem's envelope. A batch's grammar has
    /// no `vectors` or `trace`: both are false.
    pub batch: bool,
    pub vectors: bool,
    pub trace: bool,
}

fn as_bool(v: Option<&Json>, what: &str) -> Result<bool, WireError> {
    match v {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(WireError::bad(format!("\"{what}\" must be a boolean"))),
    }
}

fn as_u64(v: &Json, what: &str) -> Result<u64, WireError> {
    match v.as_num() {
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64 => Ok(x as u64),
        _ => Err(WireError::bad(format!(
            "\"{what}\" must be a non-negative integer"
        ))),
    }
}

fn f64_array(v: &Json, what: &str) -> Result<Vec<f64>, WireError> {
    let items = v
        .as_arr()
        .ok_or_else(|| WireError::bad(format!("\"{what}\" must be an array of numbers")))?;
    items
        .iter()
        .map(|x| {
            x.as_num()
                .ok_or_else(|| WireError::bad(format!("\"{what}\" must contain only numbers")))
        })
        .collect()
}

fn parse_matrix(v: &Json) -> Result<MatrixSpec, WireError> {
    if let Some(d) = v.get("d") {
        let e = v
            .get("e")
            .ok_or_else(|| WireError::bad("inline matrix needs both \"d\" and \"e\""))?;
        let (d, e) = (f64_array(d, "d")?, f64_array(e, "e")?);
        if d.is_empty() {
            return Err(WireError::bad("inline matrix needs a non-empty \"d\""));
        }
        if e.len() + 1 != d.len() {
            return Err(WireError::bad(format!(
                "inline matrix needs len(e) == len(d) - 1, got {} and {}",
                e.len(),
                d.len()
            )));
        }
        if !d.iter().chain(&e).all(|x| x.is_finite()) {
            return Err(WireError::new("nonfinite", DcError::NonFinite.to_string()));
        }
        return Ok(MatrixSpec::Inline { d, e });
    }
    let ty = v
        .get("type")
        .ok_or_else(|| WireError::bad("\"matrix\" needs \"type\"/\"n\" or \"d\"/\"e\""))?;
    let n = v
        .get("n")
        .ok_or_else(|| WireError::bad("generated matrix needs \"n\""))?;
    let seed = match v.get("seed") {
        Some(s) => as_u64(s, "seed")?,
        None => 1,
    };
    let ty = MatrixType::from_index(as_u64(ty, "type")? as usize)
        .ok_or_else(|| WireError::bad("matrix type must be 1..=15"))?;
    let n = as_u64(n, "n")? as usize;
    if n == 0 {
        return Err(WireError::bad("generated matrix needs \"n\" >= 1"));
    }
    Ok(MatrixSpec::Generated { ty, n, seed })
}

fn parse_mode(v: Option<&Json>) -> Result<SolveMode, WireError> {
    match v {
        None => Ok(SolveMode::Full),
        Some(Json::Str(s)) => match s.as_str() {
            "full" => Ok(SolveMode::Full),
            "values" => Ok(SolveMode::ValuesOnly),
            other => Err(WireError::bad(format!(
                "unknown mode '{other}' (want \"full\", \"values\", or {{\"subset\":[il,iu]}})"
            ))),
        },
        Some(obj) => {
            let range = obj
                .get("subset")
                .and_then(|r| r.as_arr())
                .ok_or_else(|| WireError::bad("mode object needs \"subset\":[il,iu]"))?;
            if range.len() != 2 {
                return Err(WireError::bad("\"subset\" wants exactly [il,iu]"));
            }
            let il = as_u64(&range[0], "subset il")? as usize;
            let iu = as_u64(&range[1], "subset iu")? as usize;
            Ok(SolveMode::Subset { il, iu })
        }
    }
}

fn parse_priority(v: Option<&Json>) -> Result<bool, WireError> {
    match v {
        None => Ok(false),
        Some(Json::Str(s)) => match s.as_str() {
            "high" => Ok(true),
            "normal" => Ok(false),
            other => Err(WireError::bad(format!(
                "unknown priority '{other}' (want \"normal\" or \"high\")"
            ))),
        },
        Some(_) => Err(WireError::bad("\"priority\" must be a string")),
    }
}

fn parse_problem(v: &Json) -> Result<Problem, WireError> {
    let matrix = parse_matrix(
        v.get("matrix")
            .ok_or_else(|| WireError::bad("request needs \"matrix\""))?,
    )?;
    Ok(Problem {
        matrix,
        mode: parse_mode(v.get("mode"))?,
    })
}

/// Parse one request line. The returned id (when the line carried one)
/// lets the caller tag even error responses for malformed requests.
pub fn parse_request(line: &str) -> (Option<u64>, Result<Request, WireError>) {
    let doc = match jsonv::parse(line) {
        Ok(doc) => doc,
        Err(e) => return (None, Err(WireError::new("parse", e.to_string()))),
    };
    let id = doc.get("id").and_then(|v| as_u64(v, "id").ok());
    let req = parse_request_doc(&doc);
    (id, req)
}

fn parse_request_doc(doc: &Json) -> Result<Request, WireError> {
    let op = doc
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| WireError::bad("request needs a string \"op\""))?;
    let need_id = || -> Result<u64, WireError> {
        as_u64(
            doc.get("id")
                .ok_or_else(|| WireError::bad(format!("\"{op}\" needs an \"id\"")))?,
            "id",
        )
    };
    match op {
        "solve" | "batch" => {
            let id = need_id()?;
            let batch = op == "batch";
            let problems = if batch {
                let items = doc
                    .get("problems")
                    .and_then(|v| v.as_arr())
                    .ok_or_else(|| WireError::bad("\"batch\" needs a \"problems\" array"))?;
                if items.is_empty() {
                    return Err(WireError::bad("\"problems\" must not be empty"));
                }
                items.iter().map(parse_problem).collect::<Result<_, _>>()?
            } else {
                vec![parse_problem(doc)?]
            };
            let vectors = !batch && as_bool(doc.get("vectors"), "vectors")?;
            if vectors && problems[0].mode == SolveMode::ValuesOnly {
                return Err(WireError::bad(
                    "\"vectors\": true needs a mode that returns vectors, not \"values\"",
                ));
            }
            Ok(Request::Solve(SolveRequest {
                id,
                problems,
                priority: parse_priority(doc.get("priority"))?,
                vectors,
                check: as_bool(doc.get("check"), "check")?,
                trace: !batch && as_bool(doc.get("trace"), "trace")?,
                batch,
            }))
        }
        "cancel" => Ok(Request::Cancel { id: need_id()? }),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::new(
            "unknown-op",
            format!("unknown op '{other}'"),
        )),
    }
}

// ---- response serialization ----

/// Escape a string for a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `[x, y, ...]` for a float slice, each value in Rust's shortest
/// round-trip form (a non-finite one as `null`): the text a reply carries.
pub fn num_arr(xs: &[f64]) -> String {
    let mut out = String::new();
    push_arr(&mut out, xs);
    out
}

/// Append `[x, y, ...]` for a float slice to `out`, each value as
/// [`push_num`] writes it.
pub(crate) fn push_arr(out: &mut String, xs: &[f64]) {
    // 25 bytes a value: its comma and up to 24 for a sign, 17 significant
    // digits, the point and a few leading zeros. Magnitudes far from 1
    // print longer (`Display` never switches to an exponent) and grow the
    // buffer.
    out.reserve(xs.len() * 25 + 2);
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_num(out, x);
    }
    out.push(']');
}

/// Append a finite float as JSON (shortest round-trip form) to `out`;
/// non-finite → null, which the error paths never produce but
/// defense-in-depth demands.
pub(crate) fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        write!(out, "{x}").expect("formatting into a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Append a success envelope to `out`: `{"id":ID,"ok":true,`, what `body`
/// appends, then `}`. `id` is `None` for a batch's items.
pub(crate) fn ok_line(out: &mut String, id: Option<u64>, body: impl FnOnce(&mut String)) {
    out.push('{');
    if let Some(id) = id {
        write!(out, "\"id\":{id},").expect("formatting into a String cannot fail");
    }
    out.push_str("\"ok\":true,");
    body(out);
    out.push('}');
}

/// Append the standard failure envelope to `out`.
pub fn error_response(out: &mut String, id: Option<u64>, err: &WireError) {
    out.push('{');
    if let Some(id) = id {
        write!(out, "\"id\":{id},").expect("formatting into a String cannot fail");
    }
    write!(
        out,
        "\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        err.code,
        escape(&err.message)
    )
    .expect("formatting into a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_request(line: &str) -> SolveRequest {
        match parse_request(line).1 {
            Ok(Request::Solve(req)) => req,
            other => panic!("wrong request for {line}: {other:?}"),
        }
    }

    #[test]
    fn parses_solve_request_variants() {
        let line = r#"{"op":"solve","id":7,"matrix":{"type":4,"n":64,"seed":3},"mode":"values","priority":"high","check":true}"#;
        assert_eq!(parse_request(line).0, Some(7));
        let req = solve_request(line);
        assert_eq!(req.id, 7);
        assert_eq!(req.problems.len(), 1);
        assert_eq!(req.problems[0].mode, SolveMode::ValuesOnly);
        assert_eq!(req.problems[0].matrix.n(), 64);
        assert!(req.priority && req.check && !req.vectors && !req.trace && !req.batch);
        let req = solve_request(
            r#"{"op":"solve","id":1,"matrix":{"d":[2,2,2],"e":[1,1]},"mode":{"subset":[0,1]}}"#,
        );
        assert_eq!(req.problems[0].mode, SolveMode::Subset { il: 0, iu: 1 });
        assert_eq!(req.problems[0].matrix.build().n(), 3);
    }

    #[test]
    fn a_batch_is_a_solve_of_many_without_vectors_or_trace() {
        let req = solve_request(
            r#"{"op":"batch","id":4,"problems":[{"matrix":{"type":2,"n":8}},{"matrix":{"type":6,"n":9},"mode":"values"}],"vectors":true,"trace":true,"check":true}"#,
        );
        assert_eq!(req.id, 4);
        assert!(req.batch && req.check && !req.vectors && !req.trace);
        let orders: Vec<usize> = req.problems.iter().map(|p| p.matrix.n()).collect();
        assert_eq!(orders, [8, 9]);
        assert_eq!(req.problems[1].mode, SolveMode::ValuesOnly);
    }

    #[test]
    fn typed_errors_for_malformed_requests() {
        for (line, code) in [
            ("{not json", "parse"),
            (r#"{"op":"frobnicate"}"#, "unknown-op"),
            (r#"{"op":"solve","matrix":{"type":4,"n":8}}"#, "bad-request"),
            (r#"{"op":"solve","id":1}"#, "bad-request"),
            (
                r#"{"op":"solve","id":1,"matrix":{"type":4,"n":8},"mode":"sideways"}"#,
                "bad-request",
            ),
            (r#"{"op":"cancel"}"#, "bad-request"),
            (r#"{"op":"batch","id":2,"problems":[]}"#, "bad-request"),
        ] {
            let (_, req) = parse_request(line);
            let err = req.expect_err(line);
            assert_eq!(err.code, code, "{line}");
        }
    }

    /// A `"values"` solve has no vectors to reply with, so asking for them
    /// is refused with the request's id. A batch never carries vectors: its
    /// `"vectors"` member is ignored, whatever its problems' modes.
    #[test]
    fn vectors_of_a_values_solve_are_a_bad_request_with_its_id() {
        let (id, req) = parse_request(
            r#"{"op":"solve","id":5,"matrix":{"type":4,"n":8},"mode":"values","vectors":true}"#,
        );
        assert_eq!(id, Some(5));
        assert_eq!(
            req.expect_err("vectors of a values solve"),
            WireError::bad("\"vectors\": true needs a mode that returns vectors, not \"values\"")
        );
        for mode in [r#""full""#, r#"{"subset":[0,3]}"#] {
            let req = solve_request(&format!(
                r#"{{"op":"solve","id":6,"matrix":{{"type":4,"n":8}},"mode":{mode},"vectors":true}}"#
            ));
            assert!(req.vectors, "{mode}");
        }
        let req = solve_request(
            r#"{"op":"batch","id":7,"problems":[{"matrix":{"type":4,"n":8},"mode":"values"}],"vectors":true}"#,
        );
        assert!(req.batch && !req.vectors);
    }

    /// A spec that cannot be built is refused by the parser, with the
    /// request's id kept for the error envelope — in a `solve` and in any
    /// member of a `batch`. So is an inline matrix no solver accepts.
    #[test]
    fn unbuildable_specs_are_bad_requests_with_their_id() {
        let nonfinite = WireError::new("nonfinite", "matrix contains NaN or infinite entries");
        for (matrix, want) in [
            (r#"{"type":16,"n":8}"#, "matrix type must be 1..=15"),
            (r#"{"type":0,"n":8}"#, "matrix type must be 1..=15"),
            (r#"{"type":4,"n":0}"#, "generated matrix needs \"n\" >= 1"),
            (
                r#"{"d":[],"e":[]}"#,
                "inline matrix needs a non-empty \"d\"",
            ),
            (
                r#"{"d":[1,2],"e":[1,1,1]}"#,
                "inline matrix needs len(e) == len(d) - 1, got 3 and 2",
            ),
            (
                r#"{"d":[1,2],"e":[]}"#,
                "inline matrix needs len(e) == len(d) - 1, got 0 and 2",
            ),
        ]
        .map(|(matrix, message)| (matrix, WireError::bad(message)))
        .into_iter()
        .chain([
            (r#"{"d":[1e999,1],"e":[0.5]}"#, nonfinite.clone()),
            (r#"{"d":[1,2],"e":[-1e999]}"#, nonfinite),
        ]) {
            for line in [
                format!(r#"{{"op":"solve","id":9,"matrix":{matrix}}}"#),
                format!(
                    r#"{{"op":"batch","id":9,"problems":[{{"matrix":{{"type":4,"n":8}}}},{{"matrix":{matrix}}}]}}"#
                ),
            ] {
                let (id, req) = parse_request(&line);
                assert_eq!(id, Some(9), "{line}");
                assert_eq!(req.expect_err(&line), want, "{line}");
            }
        }
    }

    #[test]
    fn response_floats_round_trip_through_jsonv() {
        let xs = [
            1.0 / 3.0,
            -2.2250738585072014e-308,
            6.02214076e23,
            -0.0,
            f64::MIN_POSITIVE,
        ];
        let doc = jsonv::parse(&num_arr(&xs)).unwrap();
        for (a, b) in xs.iter().zip(doc.as_arr().unwrap()) {
            assert_eq!(a.to_bits(), b.as_num().unwrap().to_bits());
        }
    }

    #[test]
    fn num_arr_writes_the_bytes_of_the_per_value_join() {
        let xs = [
            -0.0,
            5e-324,
            f64::MAX,
            0.1,
            1.0 / 3.0,
            1e21,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // One `format!` per value, joined: the bytes `num_arr` has always
        // written.
        let joined: Vec<String> = xs
            .iter()
            .map(|&x| {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        assert_eq!(num_arr(&xs), format!("[{}]", joined.join(",")));
        for (&x, want) in xs.iter().zip(&joined) {
            let mut one = String::new();
            push_num(&mut one, x);
            assert_eq!(&one, want);
        }
        assert_eq!(num_arr(&[]), "[]");
    }

    #[test]
    fn error_envelope_is_parseable() {
        let mut line = String::new();
        error_response(
            &mut line,
            Some(3),
            &WireError::new("busy", "7 in flight \"now\""),
        );
        let doc = jsonv::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some("busy")
        );
    }
}
