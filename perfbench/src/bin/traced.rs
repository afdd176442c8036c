//! Traced run: spans, the engine profiler and the counting allocator.

#[global_allocator]
static ALLOC: pdos_bench::alloc::CountingAllocator = pdos_bench::alloc::CountingAllocator;

fn main() {
    std::process::exit(pdos_perfbench::main_with(true));
}
