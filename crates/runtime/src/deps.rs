//! Data keys, access modes, and the per-key dependency state machine.

use std::collections::HashMap;

/// Identifies a logical data region tasks declare accesses against.
///
/// The runtime never touches the data itself — a key is just a name. The
/// eigensolver derives keys from `(object id, panel index)` pairs so a
/// matrix panel, a whole matrix, or a scalar flag can each be a region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DataKey(pub u64);

impl DataKey {
    /// Compose a key from an object id and an index within the object
    /// (e.g. a panel number). 2^24 indices per object; 2^40 objects.
    ///
    /// Out-of-range components would silently alias another region's key
    /// and corrupt the inferred DAG, so overflow is a hard error in every
    /// build profile — a miscomputed dependency graph is a data race, not
    /// a performance bug.
    pub const fn new(object: u64, index: u64) -> Self {
        assert!(
            index <= 0xff_ffff,
            "DataKey index exceeds 24 bits and would collide with another panel"
        );
        assert!(
            object <= 0xff_ffff_ffff,
            "DataKey object id exceeds 40 bits and would collide with another object"
        );
        DataKey((object << 24) | (index & 0xff_ffff))
    }
}

/// How a task accesses a data region (QUARK qualifiers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// `INPUT`: read-only. Concurrent reads commute.
    Read,
    /// `OUTPUT`: write; the previous contents are not read.
    Write,
    /// `INOUT`: read-modify-write.
    ReadWrite,
    /// The paper's `GATHERV`: a write that commutes with other GatherV
    /// writes to the same key (the programmer guarantees disjointness),
    /// but orders against every non-GatherV access.
    GatherV,
}

/// One declared access of a task.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    pub key: DataKey,
    pub mode: AccessMode,
}

/// Per-key history used to infer dependencies at submission time.
#[derive(Default)]
struct KeyState {
    /// The current "writer epoch": either one exclusive writer or an open
    /// group of commuting GatherV writers.
    writers: Vec<usize>,
    /// True when `writers` is an open GatherV group new GatherV accesses
    /// may join without ordering against its members.
    gather_open: bool,
    /// Readers since the last writer epoch ended.
    readers: Vec<usize>,
    /// Dependencies every member of the open GatherV group must carry
    /// (the pre-group writers and readers).
    group_preds: Vec<usize>,
}

/// Sequential-consistency dependency tracker. One per scope, behind that
/// scope's submission lock; a task's id is its position in the scope's
/// submission order.
#[derive(Default)]
pub(crate) struct DepTracker {
    keys: HashMap<DataKey, KeyState>,
}

impl DepTracker {
    /// Record task `id`'s accesses and return the (deduplicated) set of
    /// earlier task ids it must wait for.
    pub fn submit(&mut self, id: usize, accesses: &[Access]) -> Vec<usize> {
        let mut deps: Vec<usize> = Vec::new();
        for acc in accesses {
            let st = self.keys.entry(acc.key).or_default();
            match acc.mode {
                AccessMode::Read => {
                    deps.extend_from_slice(&st.writers);
                    st.gather_open = false;
                    st.readers.push(id);
                }
                AccessMode::Write | AccessMode::ReadWrite => {
                    deps.extend_from_slice(&st.writers);
                    deps.extend_from_slice(&st.readers);
                    st.writers.clear();
                    st.writers.push(id);
                    st.gather_open = false;
                    st.readers.clear();
                    st.group_preds.clear();
                }
                AccessMode::GatherV => {
                    if st.gather_open {
                        // Join the open group: commute with its members,
                        // inherit the group's predecessors.
                        deps.extend_from_slice(&st.group_preds);
                    } else {
                        // Open a new group ordered after the current epoch.
                        let mut preds = Vec::new();
                        preds.extend_from_slice(&st.writers);
                        preds.extend_from_slice(&st.readers);
                        deps.extend_from_slice(&preds);
                        st.group_preds = preds;
                        st.writers.clear();
                        st.readers.clear();
                        st.gather_open = true;
                    }
                    st.writers.push(id);
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Forget every key's history. Neutral once every recorded task has
    /// finished: a later task on such a key would infer only dependencies
    /// that release immediately.
    pub fn clear(&mut self) {
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(key: u64, mode: AccessMode) -> Access {
        Access {
            key: DataKey(key),
            mode,
        }
    }

    #[test]
    fn read_after_write_depends_on_writer() {
        let mut t = DepTracker::default();
        assert!(t.submit(0, &[acc(1, AccessMode::Write)]).is_empty());
        assert_eq!(t.submit(1, &[acc(1, AccessMode::Read)]), vec![0]);
    }

    #[test]
    fn reads_commute() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        assert_eq!(t.submit(1, &[acc(1, AccessMode::Read)]), vec![0]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::Read)]), vec![0]);
    }

    #[test]
    fn write_after_reads_depends_on_all_readers() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        t.submit(1, &[acc(1, AccessMode::Read)]);
        t.submit(2, &[acc(1, AccessMode::Read)]);
        assert_eq!(t.submit(3, &[acc(1, AccessMode::ReadWrite)]), vec![0, 1, 2]);
    }

    #[test]
    fn consecutive_writers_chain() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        assert_eq!(t.submit(1, &[acc(1, AccessMode::Write)]), vec![0]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::ReadWrite)]), vec![1]);
    }

    #[test]
    fn gatherv_members_commute_but_join_waits_for_all() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        // Three GatherV writers: each depends only on task 0.
        assert_eq!(t.submit(1, &[acc(1, AccessMode::GatherV)]), vec![0]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::GatherV)]), vec![0]);
        assert_eq!(t.submit(3, &[acc(1, AccessMode::GatherV)]), vec![0]);
        // The join (INOUT) waits for the whole group.
        assert_eq!(t.submit(4, &[acc(1, AccessMode::ReadWrite)]), vec![1, 2, 3]);
    }

    #[test]
    fn gatherv_after_readers_orders_against_them() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        t.submit(1, &[acc(1, AccessMode::Read)]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
        assert_eq!(t.submit(3, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
    }

    #[test]
    fn read_closes_gatherv_group() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::GatherV)]);
        t.submit(1, &[acc(1, AccessMode::GatherV)]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::Read)]), vec![0, 1]);
        // A GatherV after the read starts a NEW group ordered after the read
        // (and after the previous group, which is still the writer epoch).
        assert_eq!(t.submit(3, &[acc(1, AccessMode::GatherV)]), vec![0, 1, 2]);
    }

    #[test]
    fn independent_keys_are_independent() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        assert!(t.submit(1, &[acc(2, AccessMode::Write)]).is_empty());
    }

    #[test]
    fn multi_access_task_dedups_deps() {
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write), acc(2, AccessMode::Write)]);
        let deps = t.submit(
            1,
            &[acc(1, AccessMode::Read), acc(2, AccessMode::ReadWrite)],
        );
        assert_eq!(deps, vec![0]);
    }

    #[test]
    fn datakey_compose() {
        let a = DataKey::new(3, 7);
        let b = DataKey::new(3, 8);
        let c = DataKey::new(4, 7);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, DataKey::new(3, 7));
        // The full 24-bit index range stays collision-free.
        assert_ne!(DataKey::new(3, 0xff_ffff), DataKey::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn datakey_index_overflow_panics() {
        let _ = DataKey::new(3, 1 << 24);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn datakey_object_overflow_panics() {
        let _ = DataKey::new(1 << 40, 0);
    }

    #[test]
    fn gatherv_chains_reopen_after_read() {
        // W(0) → R(1) → {G(2), G(3)} → R(4) → {G(5), G(6)} → RW(7):
        // each GatherV group commutes internally, orders against the
        // preceding epoch (writers + readers), and a Read between groups
        // splits them into separately-ordered epochs.
        let mut t = DepTracker::default();
        t.submit(0, &[acc(1, AccessMode::Write)]);
        assert_eq!(t.submit(1, &[acc(1, AccessMode::Read)]), vec![0]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
        assert_eq!(t.submit(3, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
        assert_eq!(t.submit(4, &[acc(1, AccessMode::Read)]), vec![2, 3]);
        // The second group orders against the first group AND the read.
        assert_eq!(t.submit(5, &[acc(1, AccessMode::GatherV)]), vec![2, 3, 4]);
        assert_eq!(t.submit(6, &[acc(1, AccessMode::GatherV)]), vec![2, 3, 4]);
        // The join waits only for the second (current) group.
        assert_eq!(t.submit(7, &[acc(1, AccessMode::ReadWrite)]), vec![5, 6]);
    }

    #[test]
    fn read_between_gatherv_writers_splits_groups() {
        // A Read landing in the middle of what the submitter thinks of as
        // one scatter phase MUST split it: later GatherV writers order
        // after both the earlier writers and the read.
        let mut t = DepTracker::default();
        assert!(t.submit(0, &[acc(1, AccessMode::GatherV)]).is_empty());
        assert_eq!(t.submit(1, &[acc(1, AccessMode::Read)]), vec![0]);
        assert_eq!(t.submit(2, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
        assert_eq!(t.submit(3, &[acc(1, AccessMode::GatherV)]), vec![0, 1]);
        // A second read sees only the post-split group as the writer epoch.
        assert_eq!(t.submit(4, &[acc(1, AccessMode::Read)]), vec![2, 3]);
    }
}
