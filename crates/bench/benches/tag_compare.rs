//! A/B microbenchmark for the L2 set tag compare: a scalar
//! `iter().position` scan versus the 4-wide unrolled compare (`scan4`)
//! the caches run, both over the one-word-per-way set layout.
//!
//! The 8-way L2 set is the interesting case — one 64-byte host line, two
//! unrolled iterations, and the OR-combined compares let the compiler
//! keep four loads in flight before the first branch. Sets are in
//! recency order, so the hit position is swept from the most recently
//! used way (0) through the middle to the least recently used (7); a
//! miss walks a full set or a partly filled one, whose empty trailing
//! ways are zero words.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tlbmap_cache::cache::{way_scan_scalar, way_scan_unrolled};
use tlbmap_cache::LineAddr;

const WAYS: usize = 8;
const HIT: LineAddr = LineAddr(0xDEAD);
const MISS: LineAddr = LineAddr(0xBEEF);

/// A cache way word: the line address above two MESI state bits (3 is
/// Shared); an empty way is 0.
fn word(line: u64) -> u64 {
    (line << 2) | 3
}

/// A full 8-way set holding `HIT` at `way`.
fn set_with_hit_at(way: usize) -> Vec<u64> {
    (0..WAYS)
        .map(|i| word(if i == way { HIT.0 } else { 0x1000 + i as u64 }))
        .collect()
}

/// An 8-way set with `filled` lines, none of them `MISS`.
fn partly_filled(filled: usize) -> Vec<u64> {
    (0..WAYS)
        .map(|i| {
            if i < filled {
                word(0x1000 + i as u64)
            } else {
                0
            }
        })
        .collect()
}

fn bench_tag_compare(c: &mut Criterion) {
    let mut g = c.benchmark_group("tag_compare");

    for (name, way) in [("hit_mru", 0usize), ("hit_mid", 3), ("hit_lru", WAYS - 1)] {
        let set = set_with_hit_at(way);
        g.bench_function(format!("scalar/{name}"), |b| {
            b.iter(|| black_box(way_scan_scalar(black_box(&set), black_box(HIT))))
        });
        g.bench_function(format!("unrolled/{name}"), |b| {
            b.iter(|| black_box(way_scan_unrolled(black_box(&set), black_box(HIT))))
        });
    }

    for (name, set) in [
        ("miss_full", set_with_hit_at(0)),
        ("miss_partial", partly_filled(3)),
    ] {
        g.bench_function(format!("scalar/{name}"), |b| {
            b.iter(|| black_box(way_scan_scalar(black_box(&set), black_box(MISS))))
        });
        g.bench_function(format!("unrolled/{name}"), |b| {
            b.iter(|| black_box(way_scan_unrolled(black_box(&set), black_box(MISS))))
        });
    }

    g.finish();
}

fn sanity(c: &mut Criterion) {
    // Keep the two scans honest against each other while the benchmark
    // binary is the thing running them.
    for way in 0..WAYS {
        let set = set_with_hit_at(way);
        assert_eq!(way_scan_scalar(&set, HIT), Some(way));
        assert_eq!(way_scan_unrolled(&set, HIT), Some(way));
        assert_eq!(way_scan_scalar(&set, MISS), None);
        assert_eq!(way_scan_unrolled(&set, MISS), None);
    }
    for filled in 0..=WAYS {
        let set = partly_filled(filled);
        assert_eq!(way_scan_scalar(&set, MISS), None);
        assert_eq!(way_scan_unrolled(&set, MISS), None);
        // Line 0's tag matches an empty way; neither scan may report it.
        assert_eq!(way_scan_scalar(&set, LineAddr(0)), None);
        assert_eq!(way_scan_unrolled(&set, LineAddr(0)), None);
    }
    let _ = c;
}

criterion_group!(benches, sanity, bench_tag_compare);
criterion_main!(benches);
