//! Negative tests: run the analyzer over known-bad fixture snippets and
//! assert every rule fires where expected — and nowhere else — plus the
//! waiver round-trip (the same hazard with/without an inline waiver).

use std::path::{Path, PathBuf};

use simcheck::{scan_source, scan_tree, Rule};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    (path, src)
}

#[test]
fn r1_catches_every_iteration_shape() {
    let (path, src) = fixture("bad_unordered_iter.rs");
    let f = scan_source(&path, &src);
    let r1: Vec<usize> = f
        .iter()
        .filter(|f| f.rule == Rule::R1UnorderedIter && !f.waived())
        .map(|f| f.line)
        .collect();
    // for/.iter(), .drain(), .retain(), .keys(), and the local-let map.
    assert_eq!(r1.len(), 5, "{f:#?}");
}

#[test]
fn r2_catches_wall_clock_but_not_in_tests() {
    let (path, src) = fixture("bad_wall_clock.rs");
    let f = scan_source(&path, &src);
    let r2: Vec<usize> = f
        .iter()
        .filter(|f| f.rule == Rule::R2WallClock && !f.waived())
        .map(|f| f.line)
        .collect();
    // The `use std::time::…` import, Instant::now, and SystemTime in sim
    // code; the #[cfg(test)] use is exempt.
    assert_eq!(r2.len(), 3, "{f:#?}");
    assert!(
        r2.iter().all(|&l| l < 19),
        "cfg(test) region must be exempt: {r2:?}"
    );
}

#[test]
fn r3_catches_the_forgotten_field_only() {
    let (path, src) = fixture("bad_snapshot_gap.rs");
    let f = scan_source(&path, &src);
    let r3: Vec<&simcheck::Finding> = f
        .iter()
        .filter(|f| f.rule == Rule::R3SnapshotCoverage)
        .collect();
    assert_eq!(r3.len(), 1, "{f:#?}");
    assert!(r3[0].message.contains("Dev.irq_pending"));
    assert!(!r3[0].waived());
}

#[test]
fn r4_catches_rng_and_float_time_including_multiline() {
    let (path, src) = fixture("bad_nondet_primitives.rs");
    let f = scan_source(&path, &src);
    let r4: Vec<usize> = f
        .iter()
        .filter(|f| f.rule == Rule::R4NondetPrimitive && !f.waived())
        .map(|f| f.line)
        .collect();
    // thread_rng, RandomState (x2: return type + ctor), single-line float
    // time, multi-line float time.
    assert!(r4.len() >= 4, "{f:#?}");
}

#[test]
fn waived_fixture_blocks_nothing() {
    let (path, src) = fixture("waived_clean.rs");
    let f = scan_source(&path, &src);
    assert!(!f.is_empty(), "hazards must still be reported");
    assert!(f.iter().all(|f| f.waived()), "all must be waived: {f:#?}");
}

#[test]
fn clean_fixture_is_silent() {
    let (path, src) = fixture("clean.rs");
    let f = scan_source(&path, &src);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn waiver_round_trip() {
    // The same hazard, bare vs waived: the finding must flip from blocking
    // to waived without disappearing.
    let bare = "struct S { m: HashMap<u32, u32> }\n\
                fn f(s: &mut S) { s.m.retain(|_, v| *v > 0); }\n";
    let waived = "struct S { m: HashMap<u32, u32> }\n\
                  // det-ok: retained set is rebuilt before any ordered observation\n\
                  fn f(s: &mut S) { s.m.retain(|_, v| *v > 0); }\n";
    let p = Path::new("fixtures/roundtrip.rs");
    let fb = scan_source(p, bare);
    assert_eq!(fb.len(), 1);
    assert!(!fb[0].waived());
    let fw = scan_source(p, waived);
    assert_eq!(fw.len(), 1);
    assert!(fw[0].waived());
    assert_eq!(
        fw[0].waiver.as_deref(),
        Some("retained set is rebuilt before any ordered observation")
    );
}

#[test]
fn tree_scan_covers_all_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let f = scan_tree(&dir).unwrap();
    let blocking = f.iter().filter(|f| !f.waived()).count();
    let waived = f.iter().filter(|f| f.waived()).count();
    assert!(blocking >= 9, "bad_* fixtures must block: {f:#?}");
    assert!(
        waived >= 3,
        "waived_clean.rs findings must be waived: {f:#?}"
    );
    // Rule ids serialize into JSON for the CI annotation path.
    let json = simcheck::to_json(&f);
    assert!(json.contains("\"rule\": \"R1\"") && json.contains("\"rule\": \"R4\""));
}
