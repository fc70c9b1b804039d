//! Pins the atomic-rename contract of `save_to_path` /
//! `save_delta_to_path` in tests instead of only in docs: a crash
//! mid-save — the temp file written (possibly partially), the rename
//! never issued — leaves the destination byte-identical and restorable,
//! and the orphan temp both detectable ([`co_wire::is_snapshot_temp`])
//! and harmless (reading it is a typed error, ignoring it costs
//! nothing).

use co_object::obj;
use co_wire::{
    is_snapshot_temp, load_chain, load_from_path, save_delta_to_path, save_to_path, write_snapshot,
    SnapshotHandle, WireError,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("co_wire_crash_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The orphan a crashed save would leave: the writer's
/// `<dest>.tmp.<pid>.<seq>` naming with `bytes` as the partial content.
fn plant_orphan(dest: &Path, bytes: &[u8]) -> PathBuf {
    let orphan = PathBuf::from(format!(
        "{}.tmp.{}.9999",
        dest.display(),
        std::process::id()
    ));
    std::fs::write(&orphan, bytes).unwrap();
    orphan
}

fn snapshot_temps_in(dir: &Path) -> Vec<PathBuf> {
    let mut temps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| is_snapshot_temp(p))
        .collect();
    temps.sort();
    temps
}

#[test]
fn a_crash_mid_save_leaves_the_base_snapshot_restorable() {
    let dir = temp_dir("full");
    let path = dir.join("db.cow");
    let v1 = obj!([r: {[a: 1], [a: 2]}]);
    save_to_path(&path, std::slice::from_ref(&v1), b"meta-1").unwrap();
    let installed = std::fs::read(&path).unwrap();

    // A newer save "crashes": its temp holds a truncated half-snapshot
    // and the rename never happens.
    let v2 = obj!([r: {[a: 1], [a: 2], [a: 3]}]);
    let mut next = Vec::new();
    write_snapshot(&mut next, std::slice::from_ref(&v2), b"meta-2").unwrap();
    let orphan = plant_orphan(&path, &next[..next.len() - 11]);

    // The destination is untouched, byte for byte, and restores.
    assert_eq!(std::fs::read(&path).unwrap(), installed);
    let snap = load_from_path(&path).unwrap();
    assert_eq!(snap.roots, vec![v1]);
    assert_eq!(snap.meta, b"meta-1");

    // The orphan is detectable — and only it.
    assert!(is_snapshot_temp(&orphan));
    assert!(!is_snapshot_temp(&path));
    assert_eq!(snapshot_temps_in(&dir), vec![orphan.clone()]);

    // Reading the orphan is a typed error, never a panic or a wrong DB.
    let err = load_from_path(&orphan).unwrap_err();
    assert!(
        matches!(err, WireError::Truncated { .. }),
        "a half-written temp is truncated, got: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_crash_mid_delta_save_leaves_the_chain_restorable() {
    let dir = temp_dir("delta");
    let v1 = obj!([r: {1, 2}]);
    let (_, h1) = save_delta_to_path(
        dir.join("0.cow"),
        std::slice::from_ref(&v1),
        b"m0",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    let v2 = obj!([r: {1, 2, 3}]);
    let (_, h2) =
        save_delta_to_path(dir.join("1.cow"), std::slice::from_ref(&v2), b"m1", &h1).unwrap();

    // The second delta crashes mid-write: even a *complete* byte image
    // left under the temp name is not part of the chain until renamed.
    let v3 = obj!([r: {1, 2, 3, 4}]);
    let mut d2 = Vec::new();
    co_wire::write_delta_snapshot(&mut d2, std::slice::from_ref(&v3), b"m2", &h2).unwrap();
    let orphan = plant_orphan(&dir.join("2.cow"), &d2);

    // The chain that was durably installed restores in full…
    let (snap, _) = load_chain(&[dir.join("0.cow"), dir.join("1.cow")]).unwrap();
    assert_eq!(snap.roots, vec![v2]);
    assert_eq!(snap.meta, b"m1");
    // …the crashed layer never made it to its final name…
    assert!(!dir.join("2.cow").exists());
    // …and the orphan is detectable and ignorable.
    assert_eq!(snapshot_temps_in(&dir), vec![orphan]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn successful_and_failed_saves_leave_no_temps_behind() {
    let dir = temp_dir("clean");
    let db = obj!({1, 2, 3});
    // Success: temp renamed away.
    save_to_path(dir.join("ok.cow"), std::slice::from_ref(&db), b"").unwrap();
    assert_eq!(snapshot_temps_in(&dir), Vec::<PathBuf>::new());
    // Failure (destination name is taken by a *directory*, so the final
    // rename fails): the temp is cleaned up, the error is typed Io.
    std::fs::create_dir(dir.join("taken.cow")).unwrap();
    let err = save_to_path(dir.join("taken.cow"), std::slice::from_ref(&db), b"").unwrap_err();
    assert!(matches!(err, WireError::Io(_)), "got: {err}");
    assert_eq!(snapshot_temps_in(&dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_saves_to_one_destination_install_one_intact_snapshot() {
    // The per-process, per-call temp sequence means racing writers never
    // interleave into one temp inode: whatever rename lands last, the
    // destination is one complete snapshot, not a splice.
    let dir = temp_dir("race");
    let path = dir.join("hot.cow");
    let contenders: Vec<_> = (0..8i64)
        .map(|i| co_object::Object::set((0..=i).map(co_object::Object::int)))
        .collect();
    std::thread::scope(|scope| {
        for db in &contenders {
            let path = &path;
            scope.spawn(move || {
                save_to_path(path, std::slice::from_ref(db), b"race").unwrap();
            });
        }
    });
    let snap = load_from_path(&path).unwrap();
    assert_eq!(snap.meta, b"race");
    assert!(
        contenders.contains(&snap.roots[0]),
        "the installed snapshot must be one contender's write, intact"
    );
    assert_eq!(snapshot_temps_in(&dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}
