//! What a bin allocates, whatever the registry's size. At 1 000 tenants a
//! steady-state bin (one that closes no measurement interval) acquires no
//! more than the same bin of the five cohort heads alone — nothing per
//! member: no label, no per-member copy — and, when no query's table grows,
//! only the vectors its record owns. (The batch's own memos, built on first
//! touch and freed with it, are built before the count.) The records of a
//! bin share the registry's label table, so every record's label resolves
//! to the label its query registered with, across deregistrations and late
//! joins, even in a record kept from before them.
//!
//! Heap acquisitions are counted by a global allocator like the one behind
//! the pipeline bench's `alloc_per_bin`; this file holds one test, so no
//! other test's allocations land on the counter.

use netshed::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A counting wrapper around the system allocator: every heap acquisition
/// (alloc, zeroed alloc, realloc) bumps one relaxed counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all allocation to `System`; the counter is a relaxed atomic
// touched nowhere else, so no allocator invariant is altered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KINDS: [QueryKind; 5] = [
    QueryKind::Counter,
    QueryKind::Application,
    QueryKind::Flows,
    QueryKind::TopK,
    QueryKind::HighWatermark,
];

fn tenant(index: usize) -> QuerySpec {
    QuerySpec::new(KINDS[index % KINDS.len()]).with_label(format!("tenant-{index:04}"))
}

/// Builds what the batch's store memoises on first touch — the flow index,
/// the flows' table keys and totals — which the batch owns and frees.
fn warm(batch: &Batch) {
    let store = &batch.packets;
    for flow in 0..store.flow_index().flows() {
        store.flow_key_hash(flow);
    }
    store.flow_totals();
}

/// Every record's label is the one its query registered with.
fn assert_labels(record: &BinRecord, registered: &[(QueryId, String)]) {
    assert_eq!(record.queries.len(), registered.len(), "bin {}", record.bin_index);
    for (query, (id, label)) in record.queries.iter().zip(registered) {
        assert_eq!((query.id, record.label(query)), (*id, label.as_str()));
    }
}

/// The unshed tenant shape at `tenants` members, one worker, no noise.
fn tenants(tenants: usize) -> Monitor {
    Monitor::builder()
        .capacity(1e15)
        .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .no_noise()
        .with_workers(1)
        .queries((0..tenants).map(tenant))
        .build()
        .expect("valid configuration")
}

/// The heap acquisitions of one bin of `monitor` over `batch`, and its
/// record.
fn counted(monitor: &mut Monitor, batch: &Batch) -> (u64, BinRecord) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let record = monitor.process_batch(batch).expect("bin");
    (ALLOCATIONS.load(Ordering::Relaxed) - before, record)
}

#[test]
fn a_steady_state_bin_allocates_only_its_record_and_shares_one_label_table() {
    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(61).with_mean_packets_per_batch(500.0),
    )
    .batches(40);
    // The five cohort heads alone run what the 1 000 tenants run.
    let (mut monitor, mut heads) = (tenants(1000), tenants(5));
    let mut registered: Vec<(QueryId, String)> =
        monitor.query_handles().into_iter().map(|(id, label)| (id, label.to_string())).collect();

    // Warm every query's tables and the engine's scratch over two
    // intervals, then count the bins of the third but the one that closes
    // the second: a steady-state bin allocates no more at 1 000 tenants than
    // at 5 — nothing per member — and, when no query's table grows, only the
    // vectors its record owns: the per-query rows and the decision's rates
    // (and allocations, when the policy files them).
    let mut kept = Vec::new();
    for batch in &batches[..20] {
        let record = monitor.process_batch(batch).expect("bin");
        heads.process_batch(batch).expect("bin");
        assert_labels(&record, &registered);
        kept.push(record);
    }
    let mut steady = Vec::new();
    for batch in &batches[20..30] {
        warm(batch);
        let (allocations, record) = counted(&mut monitor, batch);
        let (alone, _) = counted(&mut heads, batch);
        assert_labels(&record, &registered);
        if record.interval_outputs.is_none() {
            assert_eq!(allocations, alone, "bin {}: per-member allocations", record.bin_index);
            let vectors = 2 + u64::from(record.decision.allocations.is_some());
            steady.push((allocations, vectors));
        }
    }
    assert!(steady.len() >= 5, "{steady:?}");
    let least = steady.iter().min().expect("steady-state bins");
    assert_eq!(least.0, least.1, "{steady:?}");

    // Late joins and deregistrations, one of each before each bin: every
    // record resolves to the registry of its bin, and a record kept from
    // before them still resolves to the registry of its own.
    let before = kept.last().expect("twenty bins").clone();
    for (step, batch) in batches[30..].iter().enumerate() {
        let (id, _) = registered.remove(step * 97 % registered.len());
        monitor.deregister(id).expect("registered");
        let spec = tenant(1000 + step);
        let id = monitor.register(&spec).expect("valid spec");
        registered.push((id, spec.resolved_label()));
        let record = monitor.process_batch(batch).expect("bin");
        assert_labels(&record, &registered);
    }
    let first: Vec<(QueryId, String)> =
        (0..1000).map(|index| (before.queries[index].id, tenant(index).resolved_label())).collect();
    assert_labels(&before, &first);
    assert!(kept.iter().all(|record| record.labels == before.labels));
}
