//! What the `.nsck` hostile-input tests share: a real fleet checkpoint to
//! attack, and an allocator that remembers the largest single request, so a
//! failed restore can be held to the largest request a clean one makes — a
//! buffer sized from a forged or missing length would exceed it.
//!
//! The allocator is the test binary's global one, so a binary that uses this
//! module holds one test: no other test's allocations mix in.

use netshed::monitor::reference::measure_total_demand;
use netshed::prelude::*;
use netshed_bench::corpus::CORPUS_SEED;
use netshed_service::{Daemon, MonitorEngine, ServiceError, TickStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request since the
/// last reset.
struct PeakRequest;

static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers all allocation to `System` with the caller's own arguments;
// the peak is a relaxed atomic touched nowhere else and never changes what
// is returned.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

/// A two-lane fleet running a packet-sampled and a flow-sampled query at
/// twice its capacity, checkpointed after 15 of `batches`' bins.
pub fn fleet_checkpoint(batches: &[Batch]) -> (MonitorConfig, Vec<u8>) {
    let specs = [QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
    let demand = measure_total_demand(&specs, &batches[..10]).expect("valid specs");
    let config = MonitorConfig::default()
        .with_capacity(demand / 2.0)
        .with_seed(CORPUS_SEED)
        .with_shard_lanes(2);
    let mut fleet = ShardedMonitor::from_config(config.clone()).expect("valid configuration");
    for spec in &specs {
        fleet.register(spec).expect("valid spec");
    }
    let (daemon, _control) = Daemon::new(fleet, BatchReplay::new(batches.to_vec()));
    let mut daemon = daemon.with_bins_per_tick(15);
    assert_eq!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 15 });
    (config, daemon.checkpoint().expect("checkpoint"))
}

/// The largest single request a restore of the clean `bytes` makes.
pub fn clean_restore_peak(config: &MonitorConfig, batches: &[Batch], bytes: &[u8]) -> usize {
    PEAK.store(0, Ordering::Relaxed);
    Daemon::<_, ShardedMonitor>::restore_engine(
        config.clone(),
        BatchReplay::new(batches.to_vec()),
        bytes,
    )
    .expect("the clean checkpoint restores");
    PEAK.load(Ordering::Relaxed)
}

/// Restores `bytes` into a fresh fleet and returns the error and the
/// largest single allocation the attempt requested.
pub fn failed_restore(
    config: &MonitorConfig,
    batches: &[Batch],
    bytes: &[u8],
) -> (ServiceError, usize) {
    let source = BatchReplay::new(batches.to_vec());
    PEAK.store(0, Ordering::Relaxed);
    let restored = Daemon::<_, ShardedMonitor>::restore_engine(config.clone(), source, bytes);
    let peak = PEAK.load(Ordering::Relaxed);
    match restored {
        Ok(_) => panic!("a damaged checkpoint of {} bytes restored", bytes.len()),
        Err(error) => (error, peak),
    }
}
