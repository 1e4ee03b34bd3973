//! Every crate root of the workspace — the facade, each `crates/*` and
//! each `shims/*` member — carries `#![forbid(unsafe_code)]`; rustc then
//! enforces it. A workspace-wide `unsafe_code = "forbid"` lint would also
//! cover the counting-allocator test targets, which need
//! `unsafe impl GlobalAlloc`, so the attribute lives per crate and this
//! test checks it is there.

use std::fs;
use std::path::{Path, PathBuf};

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for members in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(members)).expect("member directory") {
            let lib = entry.expect("directory entry").path().join("src/lib.rs");
            if lib.is_file() {
                libs.push(lib);
            }
        }
    }
    assert!(libs.len() > 10, "found only {libs:?}");
    let missing: Vec<&PathBuf> = libs
        .iter()
        .filter(|lib| {
            !fs::read_to_string(lib)
                .expect("readable crate root")
                .contains("#![forbid(unsafe_code)]")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}
