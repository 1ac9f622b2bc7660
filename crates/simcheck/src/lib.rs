//! Token-level determinism-hazard analyzer for the SimBricks workspace.
//!
//! Deliberately dependency-free: no `syn`, no regex crate. Rust source is
//! stripped of comments and string literals by a small state machine, then
//! scanned line-by-line with identifier-level token matching. That is enough
//! to catch the hazard classes that have actually bitten this codebase
//! (hash-order iteration, wall-clock reads, incomplete snapshots, ambient
//! randomness) while staying fast and auditable.
//!
//! Rules:
//! - **R1 unordered-iteration** — iterating a `HashMap`/`HashSet` (`for`,
//!   `.iter()`, `.drain()`, `.retain()`, `.keys()`, `.values()`, ...) in a
//!   simulation-path crate. Hash iteration order differs per process
//!   (`RandomState`), so any observable effect diverges across runs, shards,
//!   and checkpoint/restore. Waive with `// det-ok: <reason>`.
//! - **R2 wall-clock** — `Instant::now` / `SystemTime` in a simulation-path
//!   crate. Virtual time must come from the event kernel; wall time is only
//!   legitimate in runner orchestration/transport (timeouts) and benches.
//!   Waive with `// det-ok: <reason>`.
//! - **R3 snapshot-coverage** — a field of a type with `impl Snapshot for T`
//!   that is never mentioned in the impl body. Unreferenced state silently
//!   escapes checkpoints and breaks restore bit-identity. Waive per field
//!   with `// snap-skip: <reason>`.
//! - **R4 nondeterministic primitives** — `thread_rng`, `RandomState`,
//!   `from_entropy`, or a float expression feeding a `SimTime::from_*`
//!   constructor (floats make timestamps platform/optimization sensitive).
//!   Waive with `// det-ok: <reason>`.
//! - **R5 io-panic** — `.unwrap()` / `.expect(...)` / `panic!(...)` in the
//!   distributed-orchestration I/O files (every file under
//!   `runner/src/dist/`, `proxy.rs`, `shm.rs`) and on the decode path of untrusted bytes (`base/src/snap.rs`,
//!   the one byte codec, and `runner/src/checkpoint.rs`). A panic on those
//!   paths takes down the orchestrator or a worker instead of surfacing a
//!   typed `DistError`/`SnapError` the supervisor can classify and recover
//!   from. Waive with `// io-ok: <reason>`.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose code executes inside the simulated world. R1/R2/R4 apply
/// here; runner (orchestration, transports, timeouts) and bench (wall-clock
/// measurement harness) are exempt by design.
pub const SIM_PATH_CRATES: &[&str] = &[
    "base", "core", "eth", "pcie", "proto", "netstack", "netsim", "nicsim", "nvmesim", "hostsim",
    "apps", "scenario", "replay",
];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_keys",
    "into_values",
];

/// Files R5 applies to: the distributed-run control plane, where an un-typed
/// panic means a hung fleet or an orphaned worker instead of a classified,
/// recoverable `DistError`-shaped failure, and the one byte codec
/// (`SnapReader`) plus the checkpoint container decoder, which every
/// untrusted control frame, handshake, shm header and checkpoint blob goes
/// through. An entry ending in `/` is a directory and covers every file
/// under it.
pub const IO_PANIC_FILES: &[&str] = &[
    "runner/src/dist/",
    "runner/src/proxy.rs",
    "runner/src/shm.rs",
    "runner/src/checkpoint.rs",
    "base/src/snap.rs",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    R1UnorderedIter,
    R2WallClock,
    R3SnapshotCoverage,
    R4NondetPrimitive,
    R5IoPanic,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1UnorderedIter => "R1",
            Rule::R2WallClock => "R2",
            Rule::R3SnapshotCoverage => "R3",
            Rule::R4NondetPrimitive => "R4",
            Rule::R5IoPanic => "R5",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::R1UnorderedIter => "unordered-iteration",
            Rule::R2WallClock => "wall-clock",
            Rule::R3SnapshotCoverage => "snapshot-coverage",
            Rule::R4NondetPrimitive => "nondet-primitive",
            Rule::R5IoPanic => "io-panic",
        }
    }

    pub fn explain(self) -> &'static str {
        match self {
            Rule::R1UnorderedIter => {
                "R1 unordered-iteration\n\
                 \n\
                 Iterating a HashMap/HashSet in a simulation-path crate.\n\
                 std hash maps seed a per-instance RandomState, so iteration\n\
                 order differs between processes and between runs. Any\n\
                 observable effect of that order (event emission, snapshot\n\
                 bytes, eviction choice, timer firing) diverges across the\n\
                 sequential/sharded/distributed executors and across\n\
                 checkpoint/restore.\n\
                 \n\
                 Fix: use BTreeMap/BTreeSet (preferred: order becomes\n\
                 structural), or sort before iterating.\n\
                 Waive: `// det-ok: <reason>` on the line or the line above."
            }
            Rule::R2WallClock => {
                "R2 wall-clock\n\
                 \n\
                 Instant::now/SystemTime in a simulation-path crate. All\n\
                 simulated behavior must be a function of virtual time\n\
                 (SimTime from the event kernel); reading the host clock\n\
                 makes results depend on machine load. Wall time is\n\
                 legitimate only in runner orchestration/transport\n\
                 (connection timeouts), benches, and #[cfg(test)] code.\n\
                 \n\
                 Fix: thread virtual time through; or move the code to the\n\
                 runner. Waive: `// det-ok: <reason>`."
            }
            Rule::R3SnapshotCoverage => {
                "R3 snapshot-coverage\n\
                 \n\
                 A field of a type implementing Snapshot is never mentioned\n\
                 in its snapshot()/restore() bodies. State that escapes the\n\
                 checkpoint either breaks restore bit-identity or silently\n\
                 resurrects stale values. The check is name-based: a field\n\
                 is covered if its identifier appears anywhere in the impl\n\
                 block.\n\
                 \n\
                 Fix: encode the field (canonical order), or mark it\n\
                 reconstructed-by-design.\n\
                 Waive: `// snap-skip: <reason>` on the field declaration."
            }
            Rule::R4NondetPrimitive => {
                "R4 nondet-primitive\n\
                 \n\
                 thread_rng/from_entropy/RandomState in a simulation-path\n\
                 crate, or a float (f32/f64) expression feeding a\n\
                 SimTime::from_* constructor. Ambient randomness is seeded\n\
                 from the OS; float rounding differs across platforms and\n\
                 optimization levels — both poison virtual timestamps.\n\
                 \n\
                 Fix: use the seeded deterministic RNG (base::kernel LCG)\n\
                 and integer arithmetic for time.\n\
                 Waive: `// det-ok: <reason>`."
            }
            Rule::R5IoPanic => {
                "R5 io-panic\n\
                 \n\
                 .unwrap()/.expect(...)/panic!(...) in the distributed\n\
                 orchestration I/O files (every file under runner/src/dist/,\n\
                 proxy.rs, shm.rs) and on the decode path of untrusted bytes: the one\n\
                 byte codec (base/src/snap.rs: SnapReader decodes every\n\
                 control payload, proxy handshake, shm parameter block and\n\
                 checkpoint) and the checkpoint container decoder\n\
                 (runner/src/checkpoint.rs). Sockets close, peers die, shm\n\
                 files vanish and blobs tear in normal operation; a panic on\n\
                 those paths kills the orchestrator or strands a worker\n\
                 instead of producing a typed DistError/SnapError the\n\
                 supervision loop can classify, retry, and report.\n\
                 #[cfg(test)] code is exempt.\n\
                 \n\
                 Fix: return io::Result/SnapResult/DistError and let the\n\
                 supervisor decide; take fixed-size arrays with\n\
                 split_first_chunk/first_chunk, not try_into().unwrap();\n\
                 reserve panics for API-contract violations.\n\
                 Waive: `// io-ok: <reason>` on the line or the line above."
            }
        }
    }

    pub fn all() -> &'static [Rule] {
        &[
            Rule::R1UnorderedIter,
            Rule::R2WallClock,
            Rule::R3SnapshotCoverage,
            Rule::R4NondetPrimitive,
            Rule::R5IoPanic,
        ]
    }

    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::all()
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// `Some(reason)` when an inline waiver covers this finding.
    pub waiver: Option<String>,
}

impl Finding {
    pub fn waived(&self) -> bool {
        self.waiver.is_some()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )?;
        if let Some(w) = &self.waiver {
            write!(f, " (waived: {w})")?;
        }
        Ok(())
    }
}

/// One source line after comment/string stripping.
#[derive(Debug, Default, Clone)]
struct Line {
    /// Code with comments removed and string/char literal *contents* blanked.
    code: String,
    /// Concatenated comment text on this line (for waiver detection).
    comment: String,
    /// Inside a `#[cfg(test)]` / `#[test]` item body.
    in_test: bool,
}

/// Strip comments and string literals, keeping comment text aside.
/// Handles line comments, nested block comments, string/char/byte literals,
/// raw strings (`r"…"`, `r#"…"#`), and distinguishes lifetimes from char
/// literals.
fn strip(src: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut lines = vec![Line::default()];
    let mut st = St::Code;
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let cur = lines.last_mut().unwrap();
        match st {
            St::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::LineComment;
                    i += 2;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    st = St::Str;
                    cur.code.push('"');
                    i += 1;
                    continue;
                }
                if c == b'r' && !prev_is_ident(&cur.code) {
                    // r"…" / r#"…"# raw strings (also br"…").
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        st = St::RawStr(hashes);
                        cur.code.push('"');
                        i = j + 1;
                        continue;
                    }
                }
                if c == b'\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_char = match b.get(i + 1) {
                        Some(b'\\') => true,
                        Some(_) => b.get(i + 2) == Some(&b'\''),
                        None => false,
                    };
                    if is_char {
                        st = St::Char;
                        cur.code.push('\'');
                        i += 1;
                        continue;
                    }
                }
                cur.code.push(c as char);
                i += 1;
            }
            St::LineComment => {
                cur.comment.push(c as char);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c as char);
                    i += 1;
                }
            }
            St::Str => {
                if c == b'\\' {
                    i += 2;
                } else if c == b'"' {
                    st = St::Code;
                    cur.code.push('"');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        cur.code.push('"');
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == b'\\' {
                    i += 2;
                } else if c == b'\'' {
                    st = St::Code;
                    cur.code.push('\'');
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    mark_test_regions(&mut lines);
    lines
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Mark lines inside `#[cfg(test)]` / `#[test]` item bodies: from the
/// attribute, find the item's opening brace and skip to its match.
fn mark_test_regions(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.clone();
        if code.contains("#[cfg(test)]") || code.contains("#[test]") {
            // Find the first `{` at or after this line, then its match.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'outer: while j < lines.len() {
                for ch in lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // `#[cfg(test)] use …;` or a `;`-terminated item
                        // before any brace: nothing to skip.
                        ';' if !opened => break 'outer,
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// Split a code line into identifier and single-char punctuation tokens.
fn tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in code.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn waiver_on(lines: &[Line], idx: usize, tag: &str) -> Option<String> {
    for j in [Some(idx), idx.checked_sub(1)].into_iter().flatten() {
        if let Some(pos) = lines[j].comment.find(tag) {
            let reason = lines[j].comment[pos + tag.len()..]
                .trim()
                .trim_start_matches(':')
                .trim();
            return Some(if reason.is_empty() {
                "(no reason given)".into()
            } else {
                reason.into()
            });
        }
    }
    None
}

/// Which crate (directory under `crates/`) a path belongs to, if any.
/// Paths inside a `fixtures` directory are rule playgrounds: classified as
/// no-crate so the full rule set applies regardless of where they live.
fn crate_of(path: &Path) -> Option<String> {
    let mut comps = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned());
    if path.components().any(|c| c.as_os_str() == "fixtures") {
        return None;
    }
    while let Some(c) = comps.next() {
        if c == "crates" {
            return comps.next();
        }
    }
    None
}

/// Scan one file's source. `path` is used for crate classification and
/// reporting only. Files outside `crates/` (e.g. fixture dirs) get the full
/// rule set.
pub fn scan_source(path: &Path, src: &str) -> Vec<Finding> {
    let krate = crate_of(path);
    let sim_path = match &krate {
        Some(k) => SIM_PATH_CRATES.contains(&k.as_str()),
        None => true,
    };
    let lines = strip(src);
    let mut out = Vec::new();
    if sim_path {
        r1_unordered_iter(path, &lines, &mut out);
        r2_wall_clock(path, &lines, &mut out);
        r4_nondet(path, &lines, &mut out);
    }
    r3_snapshot_coverage(path, &lines, &mut out);
    if is_io_panic_file(path) {
        r5_io_panic(path, &lines, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Whether R5 applies: the path ends in one of [`IO_PANIC_FILES`], or lies
/// under one of its directory entries (compared by whole path component,
/// with `/` separators regardless of platform).
fn is_io_panic_file(path: &Path) -> bool {
    let p: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    IO_PANIC_FILES.iter().any(|f| match f.strip_suffix('/') {
        Some(dir) => {
            let dir: Vec<&str> = dir.split('/').collect();
            // The directory, followed by at least the file name.
            p.len() > dir.len() && p[..p.len() - 1].windows(dir.len()).any(|w| w == dir)
        }
        None => {
            let suffix: Vec<&str> = f.split('/').collect();
            p.len() >= suffix.len() && p[p.len() - suffix.len()..] == suffix[..]
        }
    })
}

fn r5_io_panic(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let toks = tokens(&l.code);
        let mut what: Option<&str> = None;
        for w in toks.windows(3) {
            if w[0] == "." && w[2] == "(" && (w[1] == "unwrap" || w[1] == "expect") {
                what = Some(if w[1] == "unwrap" {
                    ".unwrap()"
                } else {
                    ".expect(...)"
                });
                break;
            }
            if w[0] == "panic" && w[1] == "!" && w[2] == "(" {
                what = Some("panic!(...)");
                break;
            }
        }
        if let Some(what) = what {
            out.push(Finding {
                rule: Rule::R5IoPanic,
                file: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "`{what}` on a distributed-orchestration I/O or decode path; return a \
                     typed error the supervisor can classify and recover from"
                ),
                waiver: waiver_on(lines, idx, "io-ok"),
            });
        }
    }
}

fn r1_unordered_iter(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    // Pass A: identifiers declared with a hash-table type.
    let mut hash_idents: Vec<String> = Vec::new();
    for l in lines.iter().filter(|l| !l.in_test) {
        let toks = tokens(&l.code);
        for (i, t) in toks.iter().enumerate() {
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            // `name: HashMap<…>` (field or typed let) — identifier before `:`.
            // Walk back over a path prefix (`std :: collections ::`).
            let mut j = i;
            while j >= 3 && toks[j - 1] == ":" && toks[j - 2] == ":" && is_ident(&toks[j - 3]) {
                j -= 3;
            }
            if j >= 2 && toks[j - 1] == ":" && is_ident(&toks[j - 2]) {
                push_unique(&mut hash_idents, &toks[j - 2]);
                continue;
            }
            // `let [mut] name = HashMap::new()` — identifier before `=`.
            if j >= 2 && toks[j - 1] == "=" && is_ident(&toks[j - 2]) {
                push_unique(&mut hash_idents, &toks[j - 2]);
            }
        }
    }
    // Pass B: flag iteration over those identifiers.
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let toks = tokens(&l.code);
        for name in &hash_idents {
            let mut hit: Option<String> = None;
            for w in toks.windows(4) {
                if &w[0] == name
                    && w[1] == "."
                    && ITER_METHODS.contains(&w[2].as_str())
                    && w[3] == "("
                {
                    hit = Some(format!("`{}.{}()` iterates a hash table", name, w[2]));
                    break;
                }
            }
            if hit.is_none() {
                if let Some(fi) = toks.iter().position(|t| t == "for") {
                    if let Some(ii) = toks[fi..].iter().position(|t| t == "in") {
                        if toks[fi + ii..].iter().any(|t| t == name) {
                            hit = Some(format!("`for … in {name}` iterates a hash table"));
                        }
                    }
                }
            }
            if let Some(msg) = hit {
                out.push(Finding {
                    rule: Rule::R1UnorderedIter,
                    file: path.to_path_buf(),
                    line: idx + 1,
                    message: format!(
                        "{msg}; iteration order is per-process random — use BTreeMap/BTreeSet or sort first"
                    ),
                    waiver: waiver_on(lines, idx, "det-ok"),
                });
                break;
            }
        }
    }
}

fn r2_wall_clock(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let toks = tokens(&l.code);
        let instant_now = toks
            .windows(4)
            .any(|w| w[0] == "Instant" && w[1] == ":" && w[2] == ":" && w[3] == "now");
        let systime = toks.iter().any(|t| t == "SystemTime");
        if instant_now || systime {
            let what = if instant_now {
                "Instant::now"
            } else {
                "SystemTime"
            };
            out.push(Finding {
                rule: Rule::R2WallClock,
                file: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "`{what}` reads the host clock in a simulation-path crate; use virtual time (SimTime)"
                ),
                waiver: waiver_on(lines, idx, "det-ok"),
            });
        }
    }
}

fn r4_nondet(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let toks = tokens(&l.code);
        let mut msg = None;
        for bad in ["thread_rng", "from_entropy", "RandomState"] {
            if toks.iter().any(|t| t == bad) {
                msg = Some(format!(
                    "`{bad}` is OS-seeded ambient randomness; use the seeded simulation RNG"
                ));
                break;
            }
        }
        if msg.is_none() {
            let has_time_ctor =
                l.code.contains("SimTime::from_") || l.code.contains("TimePs::from_");
            // The float cast often sits on the constructor's continuation
            // line; look one line ahead as well.
            let float_on = |i: usize| {
                let Some(l) = lines.get(i) else { return false };
                let toks = tokens(&l.code);
                toks.iter().any(|t| t == "f32" || t == "f64")
                    // Float literals: `1000.0`, `17.5` → tokens [int, ., int].
                    || toks.windows(3).any(|w| {
                        w[0].chars().all(|c| c.is_ascii_digit())
                            && w[1] == "."
                            && w[2].chars().next().is_some_and(|c| c.is_ascii_digit())
                    })
            };
            // Only chase the continuation line when the constructor call is
            // still open (unbalanced parens) — otherwise a float on the next
            // line belongs to an unrelated expression.
            let unclosed = l.code.matches('(').count() > l.code.matches(')').count();
            let has_float = float_on(idx) || (unclosed && float_on(idx + 1));
            if has_time_ctor && has_float {
                msg = Some(
                    "float expression feeds a virtual-time constructor; float rounding is \
                     platform/optimization sensitive — use integer arithmetic"
                        .into(),
                );
            }
        }
        if let Some(message) = msg {
            out.push(Finding {
                rule: Rule::R4NondetPrimitive,
                file: path.to_path_buf(),
                line: idx + 1,
                message,
                waiver: waiver_on(lines, idx, "det-ok"),
            });
        }
    }
}

fn r3_snapshot_coverage(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    // Find `impl Snapshot for T` sites (possibly `impl<…> Snapshot for T<…>`).
    let mut impls: Vec<(String, usize)> = Vec::new(); // (type name, line idx)
    for (idx, l) in lines.iter().enumerate() {
        let toks = tokens(&l.code);
        if !toks.iter().any(|t| t == "impl") {
            continue;
        }
        for w in 0..toks.len() {
            if toks[w] == "Snapshot"
                && w + 2 < toks.len()
                && toks[w + 1] == "for"
                && is_ident(&toks[w + 2])
            {
                impls.push((toks[w + 2].clone(), idx));
            }
        }
    }
    // Free/inherent functions defined in this file, for one-hop coverage:
    // a field is also covered when the impl body calls a same-file helper
    // whose body references it (e.g. snapshot() delegating to to_wire()).
    let mut fn_defs: Vec<(String, usize)> = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let toks = tokens(&l.code);
        for w in toks.windows(2) {
            if w[0] == "fn" && is_ident(&w[1]) {
                fn_defs.push((w[1].clone(), idx));
            }
        }
    }
    for (ty, impl_line) in impls {
        let Some(fields) = struct_fields(lines, &ty) else {
            continue; // struct defined elsewhere (or tuple struct): can't check
        };
        let Some(mut body_idents) = brace_block_idents(lines, impl_line) else {
            continue;
        };
        // One hop through same-file helpers (no recursion): only calls
        // anchored to this type (`self.helper(…)`, `Ty::helper(…)`,
        // `Self::helper(…)`) count — a bare name match would leak coverage
        // through unrelated types' constructors in the same file.
        let calls = self_call_names(lines, impl_line, &ty).unwrap_or_default();
        for (name, fline) in &fn_defs {
            if name == "snapshot" || name == "restore" || !calls.contains(name) {
                continue;
            }
            if let Some(helper) = brace_block_idents(lines, *fline) {
                for id in helper {
                    push_unique(&mut body_idents, &id);
                }
            }
        }
        for (field, fline) in fields {
            if body_idents.contains(&field) {
                continue;
            }
            out.push(Finding {
                rule: Rule::R3SnapshotCoverage,
                file: path.to_path_buf(),
                line: fline + 1,
                message: format!(
                    "field `{ty}.{field}` is never referenced in its Snapshot impl \
                     (line {}); unsnapshotted state breaks restore bit-identity",
                    impl_line + 1
                ),
                waiver: waiver_on(lines, fline, "snap-skip"),
            });
        }
    }
}

/// Collect `(field_name, line_idx)` for `struct T { … }` in this file.
/// Returns None for tuple/unit structs or if the struct is not found.
fn struct_fields(lines: &[Line], ty: &str) -> Option<Vec<(String, usize)>> {
    let mut start = None;
    for (idx, l) in lines.iter().enumerate() {
        let toks = tokens(&l.code);
        for w in toks.windows(2) {
            if w[0] == "struct" && w[1] == *ty {
                start = Some(idx);
                break;
            }
        }
        if start.is_some() {
            break;
        }
    }
    let start = start?;
    // Walk from the struct keyword to its `{` (skip `;`/`(` forms), then
    // collect `name :` patterns at brace depth 1.
    let mut depth = 0i32;
    let mut opened = false;
    let mut fields = Vec::new();
    for (idx, l) in lines.iter().enumerate().skip(start) {
        let toks = tokens(&l.code);
        let mut k = 0;
        while k < toks.len() {
            let t = &toks[k];
            match t.as_str() {
                "{" => {
                    depth += 1;
                    opened = true;
                }
                "}" => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some(fields);
                    }
                }
                ";" | "(" if !opened => return None, // tuple/unit struct
                _ => {
                    if opened
                        && depth == 1
                        && is_ident(t)
                        && t != "pub"
                        && t != "crate"
                        && toks.get(k + 1).map(String::as_str) == Some(":")
                        && toks.get(k + 2).map(String::as_str) != Some(":")
                        // `name :` at the start of a field decl: previous
                        // token is a separator, not part of a type path.
                        && matches!(
                            k.checked_sub(1).map(|p| toks[p].as_str()),
                            None | Some("{") | Some(",") | Some(")") | Some("pub") | Some("]")
                        )
                    {
                        fields.push((t.clone(), idx));
                    }
                }
            }
            k += 1;
        }
    }
    Some(fields)
}

/// Method/associated-fn names invoked on this type inside the brace block
/// opening at/after `start`: `self.name(`, `Ty::name(`, `Self::name(`.
fn self_call_names(lines: &[Line], start: usize, ty: &str) -> Option<Vec<String>> {
    let mut depth = 0i32;
    let mut opened = false;
    let mut names = Vec::new();
    for l in lines.iter().skip(start) {
        let toks = tokens(&l.code);
        for w in toks.windows(4) {
            if w[0] == "self" && w[1] == "." && is_ident(&w[2]) && w[3] == "(" {
                push_unique(&mut names, &w[2]);
            }
        }
        for w in toks.windows(5) {
            if (w[0] == *ty || w[0] == "Self")
                && w[1] == ":"
                && w[2] == ":"
                && is_ident(&w[3])
                && w[4] == "("
            {
                push_unique(&mut names, &w[3]);
            }
        }
        for t in toks {
            match t.as_str() {
                "{" => {
                    depth += 1;
                    opened = true;
                }
                "}" => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some(names);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// All identifier tokens inside the brace block opening at/after `start`.
fn brace_block_idents(lines: &[Line], start: usize) -> Option<Vec<String>> {
    let mut depth = 0i32;
    let mut opened = false;
    let mut idents = Vec::new();
    for l in lines.iter().skip(start) {
        for t in tokens(&l.code) {
            match t.as_str() {
                "{" => {
                    depth += 1;
                    opened = true;
                }
                "}" => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some(idents);
                    }
                }
                _ => {
                    if opened && is_ident(&t) {
                        push_unique(&mut idents, &t);
                    }
                }
            }
        }
    }
    None
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Recursively scan every `.rs` file under `root`, skipping `target/`,
/// fixture directories, and integration-test trees (`tests/` directories are
/// host-side test code, exempt like `#[cfg(test)]`).
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f)?;
        let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
        // Report paths relative to the scan root when possible, but classify
        // by the absolute path (so `crates/<name>` is still visible).
        let mut findings = scan_source(&f, &src);
        for fi in &mut findings {
            fi.file = rel.clone();
        }
        out.append(&mut findings);
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "tests" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render findings as a JSON array (hand-rolled; no serde in this crate).
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut o = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => o.push_str("\\\""),
                '\\' => o.push_str("\\\\"),
                '\n' => o.push_str("\\n"),
                c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
                c => o.push(c),
            }
        }
        o
    }
    let mut s = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"waived\": {}, \"message\": \"{}\"{}}}",
            f.rule.id(),
            f.rule.name(),
            esc(&f.file.display().to_string()),
            f.line,
            f.waived(),
            esc(&f.message),
            f.waiver
                .as_ref()
                .map(|w| format!(", \"waiver\": \"{}\"", esc(w)))
                .unwrap_or_default(),
        ));
        s.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(src: &str) -> Vec<Line> {
        strip(src)
    }

    #[test]
    fn strip_removes_comments_and_strings() {
        let l = lines_of("let x = \"HashMap in a string\"; // HashMap comment");
        assert!(!l[0].code.contains("HashMap"));
        assert!(l[0].comment.contains("HashMap comment"));
    }

    #[test]
    fn strip_handles_nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner */ still comment */ let y = r#\"HashMap \"quoted\"\"#;";
        let l = lines_of(src);
        assert!(!l[0].code.contains("HashMap"));
        assert!(l[0].code.contains("let y"));
    }

    #[test]
    fn strip_distinguishes_lifetimes_from_char_literals() {
        let l = lines_of("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(l[0].code.contains("'a str"));
        // Char literal contents blanked, quotes kept.
        assert!(l[0].code.contains("''"));
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "struct S;\n#[cfg(test)]\nmod tests {\n    fn f() { x.drain(); }\n}\nfn g() {}\n";
        let l = lines_of(src);
        assert!(!l[0].in_test);
        assert!(l[2].in_test && l[3].in_test && l[4].in_test);
        assert!(!l[5].in_test);
    }

    #[test]
    fn r1_fires_on_hash_iteration_and_respects_waiver() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &mut S) {\n\
                   for (k, v) in s.m.iter() { let _ = (k, v); }\n\
                   // det-ok: order folded through a commutative sum\n\
                   s.m.retain(|_, v| *v > 0);\n\
                   }\n";
        let f = scan_source(Path::new("crates/base/src/x.rs"), src);
        let r1: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::R1UnorderedIter)
            .collect();
        assert_eq!(r1.len(), 2);
        assert!(!r1[0].waived() && r1[0].line == 3);
        assert!(r1[1].waived() && r1[1].line == 5);
    }

    #[test]
    fn r1_ignores_non_iterating_use_and_btreemap() {
        let src = "struct S { seen: HashSet<u64>, m: BTreeMap<u32, u32> }\n\
                   fn f(s: &mut S) {\n\
                   s.seen.insert(3); s.seen.contains(&3);\n\
                   for (k, _) in s.m.iter() { let _ = k; }\n\
                   }\n";
        let f = scan_source(Path::new("crates/base/src/x.rs"), src);
        assert!(f.iter().all(|f| f.rule != Rule::R1UnorderedIter));
    }

    #[test]
    fn r2_fires_outside_runner_only() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let sim = scan_source(Path::new("crates/base/src/x.rs"), src);
        assert!(sim.iter().any(|f| f.rule == Rule::R2WallClock));
        let runner = scan_source(Path::new("crates/runner/src/x.rs"), src);
        assert!(runner.iter().all(|f| f.rule != Rule::R2WallClock));
    }

    #[test]
    fn r3_flags_missing_field_and_respects_snap_skip() {
        let src = "struct S {\n\
                   a: u32,\n\
                   b: u32,\n\
                   // snap-skip: rebuilt from config on restore\n\
                   c: u32,\n\
                   }\n\
                   impl Snapshot for S {\n\
                   fn snapshot(&self, w: &mut W) { w.u32(self.a); }\n\
                   fn restore(&mut self, r: &mut R) { self.a = r.u32(); }\n\
                   }\n";
        let f = scan_source(Path::new("crates/base/src/x.rs"), src);
        let r3: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::R3SnapshotCoverage)
            .collect();
        assert_eq!(r3.len(), 2, "{r3:?}");
        assert!(r3.iter().any(|f| f.line == 3 && !f.waived()), "b unwaived");
        assert!(r3.iter().any(|f| f.line == 5 && f.waived()), "c waived");
    }

    #[test]
    fn r3_covers_fields_reached_through_same_type_helpers_only() {
        let src = "struct S { a: u32, b: u32 }\n\
                   impl S {\n\
                   fn to_wire(&self) -> u32 { self.a + self.b }\n\
                   }\n\
                   struct T { c: u32 }\n\
                   impl T {\n\
                   fn new(c: u32) -> T { T { c } }\n\
                   }\n\
                   impl Snapshot for S {\n\
                   fn snapshot(&self, w: &mut W) { w.u32(self.to_wire()); }\n\
                   fn restore(&mut self, r: &mut R) { let _ = r; }\n\
                   }\n\
                   impl Snapshot for T {\n\
                   fn snapshot(&self, w: &mut W) { let _ = (w, new); }\n\
                   fn restore(&mut self, r: &mut R) { let _ = r; }\n\
                   }\n";
        let f = scan_source(Path::new("crates/base/src/x.rs"), src);
        let r3: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::R3SnapshotCoverage)
            .collect();
        // S.a/S.b covered via self.to_wire(); T.c is NOT covered by the
        // bare `new` mention (never called as T::new/self.new).
        assert_eq!(r3.len(), 1, "{r3:?}");
        assert!(r3[0].message.contains("T.c"));
    }

    #[test]
    fn r4_fires_on_ambient_rng_and_float_time() {
        let src = "fn f() { let r = thread_rng(); }\n\
                   fn g(x: f64) -> SimTime { SimTime::from_ns((x * 2.0) as u64) }\n";
        let f = scan_source(Path::new("crates/base/src/x.rs"), src);
        let r4: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::R4NondetPrimitive)
            .collect();
        assert_eq!(r4.len(), 2, "{r4:?}");
    }

    #[test]
    fn r5_fires_only_in_io_files_and_respects_waiver() {
        let src = "fn f(s: TcpStream) {\n\
                   let n = s.read(&mut b).unwrap();\n\
                   // io-ok: API contract, not an I/O failure\n\
                   let e = exp.take().expect(\"init() must run first\");\n\
                   if n == 0 { panic!(\"eof\"); }\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { x.unwrap(); }\n\
                   }\n";
        let f = scan_source(Path::new("crates/runner/src/dist/orchestrator.rs"), src);
        let r5: Vec<_> = f.iter().filter(|f| f.rule == Rule::R5IoPanic).collect();
        assert_eq!(r5.len(), 3, "{r5:?}");
        assert!(!r5[0].waived() && r5[0].line == 2, "unwrap flagged");
        assert!(r5[1].waived() && r5[1].line == 4, "waived expect");
        assert!(!r5[2].waived() && r5[2].line == 5, "panic! flagged");
        // Same source in a non-I/O runner file: R5 does not apply.
        let elsewhere = scan_source(Path::new("crates/runner/src/experiment.rs"), src);
        assert!(elsewhere.iter().all(|f| f.rule != Rule::R5IoPanic));
    }

    #[test]
    fn r5_covers_every_file_under_the_dist_directory() {
        let src = "fn f(s: TcpStream) {\n\
                   let n = s.read(&mut b).unwrap();\n\
                   }\n";
        for path in [
            "crates/runner/src/dist/worker.rs",
            "crates/runner/src/dist/mod.rs",
            "crates/runner/src/dist/nested/deeper.rs",
        ] {
            let f = scan_source(Path::new(path), src);
            let r5: Vec<_> = f.iter().filter(|f| f.rule == Rule::R5IoPanic).collect();
            assert_eq!(r5.len(), 1, "{path}: {r5:?}");
            assert!(!r5[0].waived() && r5[0].line == 2, "{path}: unwrap flagged");
        }
        // Whole components only: a look-alike sibling is not covered.
        for path in [
            "crates/runner/src/distx/worker.rs",
            "crates/runner/src/dist",
        ] {
            let f = scan_source(Path::new(path), src);
            assert!(f.iter().all(|f| f.rule != Rule::R5IoPanic), "{path}");
        }
    }

    #[test]
    fn r5_covers_the_byte_codec_and_the_checkpoint_decoder() {
        let src = "fn u16(&mut self) -> SnapResult<u16> {\n\
                   Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))\n\
                   }\n";
        for path in ["crates/base/src/snap.rs", "crates/runner/src/checkpoint.rs"] {
            let f = scan_source(Path::new(path), src);
            let r5: Vec<_> = f.iter().filter(|f| f.rule == Rule::R5IoPanic).collect();
            assert_eq!(r5.len(), 1, "{path}: {r5:?}");
            assert!(!r5[0].waived() && r5[0].line == 2, "{path}: unwrap flagged");
        }
        // Another base file is not on the decode path.
        let other = scan_source(Path::new("crates/base/src/kernel.rs"), src);
        assert!(other.iter().all(|f| f.rule != Rule::R5IoPanic));
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let f = vec![Finding {
            rule: Rule::R1UnorderedIter,
            file: PathBuf::from("a\"b.rs"),
            line: 7,
            message: "x \"y\"".into(),
            waiver: None,
        }];
        let j = to_json(&f);
        assert!(j.contains("\\\"y\\\""));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }
}
