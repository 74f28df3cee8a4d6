//! MOM assembly scaling with the number of patch cells, for the locally
//! corrected (analytic-plus-adaptive) near-field assembly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rough_core::assembly3d::assemble_system;
use rough_core::mesh::PatchMesh;
use rough_core::AssemblyScheme;
use rough_em::green::PeriodicGreen3d;
use rough_em::material::Stackup;
use rough_em::units::GigaHertz;
use rough_surface::RoughSurface;
use std::hint::black_box;

fn bench_assembly(c: &mut Criterion) {
    let stack = Stackup::paper_baseline();
    let f = GigaHertz::new(5.0).into();
    let mut group = c.benchmark_group("assembly3d-corrected");
    group.sample_size(10);
    for n in [6usize, 8, 10] {
        let l = 5.0e-6;
        let surface = RoughSurface::from_fn(n, l, |x, y| {
            0.5e-6
                * ((2.0 * std::f64::consts::PI * x / l).cos()
                    + (2.0 * std::f64::consts::PI * y / l).sin())
        });
        let mesh = PatchMesh::from_surface(&surface);
        let g1 = PeriodicGreen3d::new(stack.k1(f), l);
        let g2 = PeriodicGreen3d::new(stack.k2(f), l);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(assemble_system(
                    &mesh,
                    &g1,
                    &g2,
                    stack.beta(f),
                    stack.k1(f),
                    AssemblyScheme::default(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assembly);
criterion_main!(benches);
