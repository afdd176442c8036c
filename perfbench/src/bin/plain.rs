//! End-to-end run: system allocator, no spans, no profiler.

fn main() {
    std::process::exit(pdos_perfbench::main_with(false));
}
