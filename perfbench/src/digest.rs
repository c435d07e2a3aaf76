//! Output digests and the committed table they are checked against.

use cesim_core::seed::fnv1a;

/// FNV-1a of `bytes`, as 16 hex digits.
pub fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Committed digests: `<workload> <seed> <digest>` per line.
const TABLE: &str = include_str!("../digests.txt");

/// The committed digest of `workload`'s outputs at `seed`, if any.
pub fn expected(workload: &str, seed: u64) -> Option<String> {
    lookup(TABLE, workload, seed)
}

fn lookup(table: &str, workload: &str, seed: u64) -> Option<String> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed).then(|| d.to_string())
        })
}

/// Compare a run's digest with the expected one. `Err` describes a
/// mismatch; a seed without an expected digest passes (its digest is
/// still printed, and repeats within the run must agree).
pub fn check(
    workload: &str,
    seed: u64,
    actual: &str,
    expected: Option<&str>,
) -> Result<(), String> {
    match expected {
        Some(want) if want != actual => Err(format!(
            "{workload} seed {seed}: output digest {actual} != expected {want}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_and_check() {
        let t = "# comment\nsweep_grid 1 00ff\nbig_run 1 abcd\n";
        assert_eq!(lookup(t, "big_run", 1).as_deref(), Some("abcd"));
        assert_eq!(lookup(t, "big_run", 2), None);
        assert!(check("big_run", 1, "abcd", Some("abcd")).is_ok());
        assert!(check("big_run", 1, "abcd", Some("abce")).is_err());
        assert!(check("big_run", 2, "abcd", None).is_ok());
    }

    #[test]
    fn committed_table_parses() {
        for l in TABLE
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "bad line {l:?}");
            assert!(f[1].parse::<u64>().is_ok(), "bad seed in {l:?}");
            assert_eq!(f[2].len(), 16, "bad digest in {l:?}");
        }
    }
}
