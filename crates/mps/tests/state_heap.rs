//! Pins the heap a simulated state holds: its amplitudes in one
//! exact-size buffer plus its bond dimensions, two live blocks whatever
//! the number of sites (a chain of per-site tensors held `2 m + 1`).

use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::MpsSimulator;
use qk_tensor::backend::CpuBackend;

#[cfg(test)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

    static BLOCKS: AtomicIsize = AtomicIsize::new(0);
    static BYTES: AtomicIsize = AtomicIsize::new(0);

    /// The system allocator, counting the blocks and bytes left live.
    struct Counting;

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    // SAFETY: every method hands its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counters are atomics
    // and never allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                BLOCKS.fetch_add(1, Relaxed);
                BYTES.fetch_add(layout.size() as isize, Relaxed);
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            BLOCKS.fetch_sub(1, Relaxed);
            BYTES.fetch_sub(layout.size() as isize, Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let moved = System.realloc(ptr, layout, new_size);
            if !moved.is_null() {
                BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
            }
            moved
        }
    }

    /// Heap blocks and bytes live in the process now.
    pub fn live() -> (isize, isize) {
        (BLOCKS.load(Relaxed), BYTES.load(Relaxed))
    }
}

#[test]
fn a_simulated_state_holds_two_heap_blocks() {
    let m = 64;
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let circuits: Vec<_> = (0..4)
        .map(|_| {
            let features: Vec<f64> = (0..m)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    2.0 * (seed >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            feature_map_circuit(&features, &AnsatzConfig::new(2, 1, 0.5))
        })
        .collect();
    // The first state warms whatever scratch the kernels keep per thread.
    drop(sim.simulate(&circuits[0]));
    let mut states = Vec::with_capacity(circuits.len());
    for circuit in &circuits[1..] {
        let before = counting::live();
        let (state, record) = sim.simulate(circuit);
        drop(record);
        let (blocks, bytes) = counting::live();
        let (blocks, bytes) = (blocks - before.0, (bytes - before.1) as usize);
        let bound = state.memory_bytes() + 8 * (m + 1) + 64;
        assert!(state.max_bond() > 1, "the ansatz entangles");
        assert!(blocks <= 2, "a state holds {blocks} heap blocks");
        assert!(
            bytes <= bound,
            "a state holds {bytes} heap bytes, over {bound}"
        );
        states.push(state);
    }
}
