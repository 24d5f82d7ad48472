//! Concurrent writers of one cache key: two `CellCache`s on one directory (two
//! processes, in effect) commit the same entry over and over while a reader
//! polls it through fresh caches.  Each writer stages through its own temp
//! file, so every commit succeeds and the entry on disk is always complete —
//! never absent, never half-written.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use repro_bench::cache::{CellCache, KeyBuilder};
use repro_bench::row;
use repro_bench::runner::Row;

const INSERTS_PER_WRITER: usize = 200;

#[test]
fn concurrent_writers_of_one_key_never_share_a_staging_file() {
    let dir = std::env::temp_dir().join(format!("xp-staging-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = KeyBuilder::new("staging-race").field_u64("cell", 0).finish();
    let rows: Arc<Vec<Row>> =
        Arc::new((0..2000u64).map(|i| row![i, i as f64 * 0.5, "staged"]).collect());
    let same_rows = |got: &[Row]| {
        got.len() == rows.len() && got.iter().zip(rows.iter()).all(|(g, w)| g.cells == w.cells)
    };
    let writers = [CellCache::with_disk(&dir).unwrap(), CellCache::with_disk(&dir).unwrap()];
    writers[0].insert(key, Arc::clone(&rows)).unwrap();

    let done = AtomicBool::new(false);
    let (failed_inserts, bad_reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut bad = 0;
            while !done.load(Ordering::SeqCst) {
                let fresh = CellCache::with_disk(&dir).unwrap();
                if !fresh.get(key).is_some_and(|got| same_rows(&got)) {
                    bad += 1;
                }
            }
            bad
        });
        let inserters: Vec<_> = writers
            .iter()
            .map(|cache| {
                let rows = &rows;
                scope.spawn(move || {
                    (0..INSERTS_PER_WRITER)
                        .filter(|_| cache.insert(key, Arc::clone(rows)).is_err())
                        .count()
                })
            })
            .collect();
        let failed: usize = inserters.into_iter().map(|t| t.join().unwrap()).sum();
        done.store(true, Ordering::SeqCst);
        (failed, reader.join().unwrap())
    });

    assert_eq!(failed_inserts, 0, "every concurrent commit succeeds");
    for cache in &writers {
        assert_eq!(cache.stats().disk_errors, 0);
    }
    assert_eq!(bad_reads, 0, "the committed entry is never absent or half-written");
    let fresh = CellCache::with_disk(&dir).unwrap();
    assert!(fresh.get(key).is_some_and(|got| same_rows(&got)), "the final entry decodes");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "no staging file left behind: {leftovers:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
