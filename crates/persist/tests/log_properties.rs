//! Property tests for the durable log: arbitrary record sequences survive a
//! write/reopen cycle bit-exactly (including across segment rollovers),
//! arbitrary tail corruption never destroys the valid prefix, and the
//! [`SyncPolicy`] scheduler never lets the unsynced window exceed what the
//! policy promises.

use proptest::prelude::*;
use spindle_persist::{read_log, DurableLog, LogRecord, PersistOptions, SyncPolicy, SyncScheduler};

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        0u32..64,
        any::<i64>(),
        0u32..16,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(
            |(epoch, subgroup, seq, sender_rank, app_index, data)| LogRecord {
                epoch,
                subgroup,
                seq,
                sender_rank,
                app_index,
                data,
            },
        )
}

fn tmp_dir(label: &str, tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spindle-persist-prop-{label}-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_policy() -> impl Strategy<Value = SyncPolicy> {
    prop_oneof![
        Just(SyncPolicy::Always),
        (1u32..64).prop_map(SyncPolicy::EveryN),
        (0u64..200).prop_map(SyncPolicy::IntervalMs),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_records_roundtrip(records in proptest::collection::vec(arb_record(), 0..40), tag in any::<u64>()) {
        let dir = tmp_dir("roundtrip", tag);
        let (mut log, _) = DurableLog::open_with(&PersistOptions::new(&dir), "p").unwrap();
        for r in &records {
            log.append(r).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let back = read_log(&dir, "p").unwrap();
        prop_assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_corruption_preserves_prefix(
        records in proptest::collection::vec(arb_record(), 1..20),
        cut_frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        tag in any::<u64>(),
    ) {
        let dir = tmp_dir("tail", tag);
        let opts = PersistOptions::new(&dir);
        let (mut log, _) = DurableLog::open_with(&opts, "p").unwrap();
        for r in &records {
            log.append(r).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        // Truncate segment 0 at an arbitrary byte offset, then append garbage.
        let seg0 = dir.join("p.seg000000.log");
        let mut raw = std::fs::read(&seg0).unwrap();
        let cut = ((raw.len() as f64) * cut_frac) as usize;
        raw.truncate(cut);
        raw.extend_from_slice(&garbage);
        std::fs::write(&seg0, &raw).unwrap();

        let back = read_log(&dir, "p").unwrap();
        // Whatever survives must be an exact prefix of what was written.
        prop_assert!(back.len() <= records.len());
        prop_assert_eq!(&back[..], &records[..back.len()]);
        // And recovery keeps exactly that prefix.
        let (_, recovered) = DurableLog::open_with(&opts, "p").unwrap();
        prop_assert_eq!(recovered, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Segment rollover is invisible to readers: arbitrary records under an
    /// arbitrary (tiny) cap reopen bit-exactly, in order, from N segments.
    #[test]
    fn segmented_roundtrip_under_arbitrary_cap(
        records in proptest::collection::vec(arb_record(), 1..30),
        cap in 64u64..4096,
        tag in any::<u64>(),
    ) {
        let dir = tmp_dir("seg", tag);
        let opts = PersistOptions::new(&dir).segment_cap(cap);
        let (mut log, recovered) = DurableLog::open_with(&opts, "p").unwrap();
        prop_assert!(recovered.is_empty());
        for r in &records {
            log.append(r).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, replayed) = DurableLog::open_with(&opts, "p").unwrap();
        prop_assert_eq!(&replayed, &records);
        prop_assert_eq!(read_log(&dir, "p").unwrap(), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The scheduler never loses more than the policy's window: driving it
    /// with arbitrary append timestamps and syncing exactly when it says so,
    /// every-n keeps at most n-1 unsynced appends between syncs, and
    /// interval-ms keeps the oldest unsynced append younger than the
    /// interval at every poll.
    #[test]
    fn sync_policy_window_is_never_exceeded(
        policy in arb_policy(),
        gaps_ms in proptest::collection::vec(0u64..50, 1..120),
    ) {
        let mut sched = SyncScheduler::new(policy);
        let mut now = 0u64;
        for gap in gaps_ms {
            now += gap;
            sched.record_append(now);
            if sched.due(now) {
                sched.synced(now);
            }
            // The invariant the durability story rests on: after honoring
            // the scheduler at time `now`, the unsynced window is within
            // what the policy allows to be lost.
            match policy {
                SyncPolicy::Always => prop_assert_eq!(sched.pending(), 0),
                SyncPolicy::EveryN(n) => prop_assert!(sched.pending() < u64::from(n)),
                SyncPolicy::IntervalMs(t) => {
                    if let Some(oldest) = sched.oldest_dirty_ms() {
                        prop_assert!(now - oldest < t.max(1));
                    }
                }
                SyncPolicy::Never => {}
            }
        }
    }

    /// A lazier poller that only checks `due` between bursts still keeps
    /// the every-n window bounded by burst size + n (sanity that `due`
    /// latches rather than pulsing).
    #[test]
    fn every_n_due_latches_until_synced(
        n in 1u32..16,
        burst in 1usize..32,
    ) {
        let mut sched = SyncScheduler::new(SyncPolicy::EveryN(n));
        for _ in 0..burst {
            sched.record_append(0);
        }
        let was_due = sched.due(0);
        prop_assert_eq!(was_due, burst as u64 >= u64::from(n));
        if was_due {
            // Still due on a later poll until someone syncs.
            prop_assert!(sched.due(1_000));
            sched.synced(1_000);
        }
        prop_assert!(!sched.due(2_000) || sched.pending() >= u64::from(n));
    }
}
