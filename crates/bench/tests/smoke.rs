//! Smoke test: compile every bench harness into this test binary and run
//! each one once at `MMQJP_BENCH_SCALE=smoke`, so `crates/bench` can never
//! silently bit-rot. The bench targets are `harness = false` binaries that
//! plain `cargo test` would otherwise never build or execute; here each is
//! mounted as a `#[path]` module and its (public) `main` invoked directly.

/// Make the benches observe smoke scale regardless of test ordering. All
/// tests set the same value, so concurrent setters are benign.
fn force_smoke_scale() {
    std::env::set_var("MMQJP_BENCH_SCALE", "smoke");
}

macro_rules! bench_smoke {
    ($($name:ident => $file:literal;)*) => {
        $(
            #[path = $file]
            #[allow(dead_code)]
            mod $name;
        )*

        $(
            #[test]
            fn $name() {
                force_smoke_scale();
                self::$name::main();
            }
        )*
    };
}

bench_smoke! {
    fig08_simple_num_queries => "../benches/fig08_simple_num_queries.rs";
    fig09_simple_leaves => "../benches/fig09_simple_leaves.rs";
    fig10_simple_zipf => "../benches/fig10_simple_zipf.rs";
    fig11_complex_num_queries => "../benches/fig11_complex_num_queries.rs";
    fig12_complex_max_vj => "../benches/fig12_complex_max_vj.rs";
    fig13_complex_zipf => "../benches/fig13_complex_zipf.rs";
    fig14_viewmat_simple => "../benches/fig14_viewmat_simple.rs";
    fig15_viewmat_complex => "../benches/fig15_viewmat_complex.rs";
    fig16_rss_throughput => "../benches/fig16_rss_throughput.rs";
    table3_templates => "../benches/table3_templates.rs";
}
