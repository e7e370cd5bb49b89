//! Rendering a result record allocates nothing, and a sweep's memory does
//! not grow with its item count.
//!
//! A counting global allocator, switched on per thread, counts the
//! allocations made on the thread of interest. The counts are exact, so
//! these pin what a timing could not:
//!
//! * `EstimationResult::write_json`, writing a warm estimate's record into
//!   a buffer that already has room, builds no `Value` tree and no
//!   temporary string on the way;
//! * a sweep builds each item from its index on the worker that runs it,
//!   so the calling thread of a 10,080-item sweep that stops after its
//!   first outcome allocates a bounded amount, not one item list.
//!
//! Counting is off on every thread that did not ask, so each test sees
//! only its own thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::ops::ControlFlow;

use qre::circuit::LogicalCounts;
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

/// The system allocator, counting the allocations of threads that asked.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// system allocator, so the `GlobalAlloc` contract holds exactly as it does
// for `System`; the counting touches only `Copy` thread-locals with `const`
// initialisers, which neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as `realloc`'s caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_record_renders_into_a_buffer_with_room_without_allocating() {
    let counts = |t_count, rotation_count| LogicalCounts {
        num_qubits: 120,
        t_count,
        rotation_count,
        rotation_depth: rotation_count / 4,
        ccz_count: t_count / 10,
        measurement_count: 5_000,
        ..Default::default()
    };
    // A result with a T factory and rotation synthesis, a T-free one (no
    // `tfactory` group) and one on the Floquet code.
    let scenarios = [
        (
            counts(40_000, 400),
            HardwareProfile::qubit_gate_ns_e3(),
            QecSchemeKind::SurfaceCode,
        ),
        (
            counts(0, 0),
            HardwareProfile::qubit_gate_us_e4(),
            QecSchemeKind::SurfaceCode,
        ),
        (
            counts(40_000, 0),
            HardwareProfile::qubit_maj_ns_e4(),
            QecSchemeKind::FloquetCode,
        ),
    ];
    let engine = Estimator::new();
    let mut shapes = (false, false);
    for (counts, profile, scheme) in scenarios {
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(profile)
            .qec(scheme)
            .total_error_budget(1e-3)
            .build()
            .unwrap();
        engine.estimate(&request).unwrap();
        let result = engine.estimate(&request).expect("a warm estimate");
        shapes.0 |= result.t_factory.is_some();
        shapes.1 |= result.t_factory.is_none();

        let mut record = String::with_capacity(16 << 10);
        let allocations = allocations_during(|| result.write_json(&mut record));
        assert_eq!(allocations, 0, "write_json allocated rendering {record}");
        assert_eq!(record, result.to_json().to_string_compact());

        // The counter sees the `Value` path's allocations, so the zero
        // above is a measurement.
        let value_path = allocations_during(|| {
            std::hint::black_box(result.to_json().to_string_compact());
        });
        assert!(value_path > 0, "the counter counts nothing");
    }
    assert_eq!(shapes, (true, true), "both record shapes rendered");
}

#[test]
fn a_sweep_that_stops_at_its_first_outcome_allocates_a_bounded_amount() {
    let spec = qre_cli::stress_spec(10_000);
    assert_eq!(spec.len(), 10_080);
    let first_outcome = |engine: &Estimator| {
        let mut delivered = 0;
        engine
            .sweep_until(
                &spec,
                |o| o.outcome.is_ok(),
                |ok| {
                    assert!(ok, "a stress item failed");
                    delivered += 1;
                    ControlFlow::Break(())
                },
            )
            .unwrap();
        assert_eq!(delivered, 1);
    };
    // Warm the items a sweep reaches first, so an item the calling thread
    // runs itself (one worker) is a cache hit.
    let engine = Estimator::new();
    first_outcome(&engine);
    // Building the item list up front costs about 69 allocations an item
    // here; a few hundred cover spawning the workers, the delivery queue
    // and one warm item run inline.
    let allocations = allocations_during(|| first_outcome(&engine));
    assert!(
        allocations < 1_000,
        "the calling thread made {allocations} allocations"
    );
}
