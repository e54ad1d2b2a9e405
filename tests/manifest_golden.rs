//! Golden manifests of both on-disk dialects.
//!
//! `tests/golden/spool-sweep-paused` and `tests/golden/spool-fuzz-paused`
//! are spool directories written by the *pre-engine* coordinators
//! (`campaign_coordinator` / `fuzz_coordinator` at PR 11, paused with
//! `--exit-after`). The unified manifest codec must read them and write
//! them back byte for byte: the on-disk formats are frozen, so spools
//! written before the engine existed keep resuming after it.

use regemu::campaign::{Dialect, ShardManifest};
use regemu::fuzz::campaign::FuzzManifest;
use std::path::PathBuf;

fn golden(spool: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(spool)
}

#[test]
fn the_sweep_dialect_reproduces_a_pre_engine_manifest_byte_for_byte() {
    let spool = golden("spool-sweep-paused");
    let text = std::fs::read_to_string(spool.join("manifest.txt")).unwrap();
    let manifest = ShardManifest::from_text(&text).unwrap();
    assert_eq!(manifest.to_text(), text);
    assert_eq!(
        ShardManifest::from_text(&manifest.to_text()).unwrap(),
        manifest
    );
    assert_eq!(ShardManifest::load(&spool).unwrap().unwrap(), manifest);

    assert_eq!(manifest.dialect, Dialect::Sweep);
    assert_eq!(manifest.fingerprint, "908fc87013a558e3");
    assert_eq!((manifest.units, manifest.rounds), (8, 1));
    // Two shards done with one attempt each, the third still pending.
    let progress: Vec<(usize, u32)> = manifest
        .shards
        .iter()
        .map(|s| (s.rounds_done, s.attempts))
        .collect();
    assert_eq!(progress, [(1, 1), (1, 1), (0, 0)]);
    assert_eq!(manifest.incomplete().count(), 1);
}

#[test]
fn the_fuzz_dialect_reproduces_a_pre_engine_manifest_byte_for_byte() {
    let spool = golden("spool-fuzz-paused");
    let text = std::fs::read_to_string(spool.join("fuzz-manifest.txt")).unwrap();
    let manifest = FuzzManifest::from_text(&text).unwrap();
    assert_eq!(manifest.to_text(), text);
    assert_eq!(
        FuzzManifest::from_text(&manifest.to_text()).unwrap(),
        manifest
    );
    assert_eq!(FuzzManifest::load(&spool).unwrap().unwrap(), manifest);

    assert_eq!(manifest.dialect, Dialect::Fuzz);
    assert_eq!(manifest.fingerprint, "b467b7db0158ce25");
    assert_eq!((manifest.units, manifest.rounds), (4, 2));
    // Shard 0 ran both generations, shard 1 only the first.
    let progress: Vec<(usize, u32)> = manifest
        .shards
        .iter()
        .map(|s| (s.rounds_done, s.attempts))
        .collect();
    assert_eq!(progress, [(2, 2), (1, 1)]);
    assert!(!manifest.is_complete());
    assert_eq!(manifest.current_round(), Some(1));
}

#[test]
fn a_header_of_one_dialect_in_the_file_of_the_other_is_malformed() {
    let dir = std::env::temp_dir().join(format!("regemu-manifest-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(
        golden("spool-fuzz-paused").join("fuzz-manifest.txt"),
        dir.join("manifest.txt"),
    )
    .unwrap();
    assert!(ShardManifest::load(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
