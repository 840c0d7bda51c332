//! Known-bad fixture for the root `clippy.toml` bans: every denied path
//! is used below, spelled out in full. CI compiles this file with
//! `CLIPPY_CONF_DIR=. clippy-driver --edition 2021 --crate-type lib` and
//! fails unless clippy reports each path; `analyze_fixtures.rs` checks
//! that every path in `clippy.toml` appears here.

pub fn wall_clock() -> (std::time::Instant, std::time::SystemTime) {
    (std::time::Instant::now(), std::time::SystemTime::UNIX_EPOCH)
}

pub fn randomized_hashing() -> usize {
    let a: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
    let b: std::collections::HashMap<u8, u8> = std::collections::HashMap::with_capacity(4);
    let c: std::collections::HashSet<u8> = std::collections::HashSet::new();
    let d: std::collections::HashSet<u8> = std::collections::HashSet::with_capacity(4);
    let _seed: std::hash::RandomState = Default::default();
    a.len() + b.len() + c.len() + d.len()
}

pub struct SharedMutability {
    pub rc: std::rc::Rc<u8>,
    pub ref_cell: std::cell::RefCell<u8>,
    pub cell: std::cell::Cell<u8>,
    pub unsafe_cell: std::cell::UnsafeCell<u8>,
    pub mutex: std::sync::Mutex<u8>,
    pub rw_lock: std::sync::RwLock<u8>,
}

std::thread_local! {
    static SCRATCH: u8 = const { 0 };
}
