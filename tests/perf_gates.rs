//! Wall-clock performance gates on the Fig. 5 half-spheroid at 16 GHz.
//!
//! Each test times real assemblies and solves, so the file is a timing tier:
//! every test is `#[ignore]`d in the default run and the nightly CI job runs
//! them one at a time, so the timings do not contend:
//!
//! ```text
//! cargo test --release --test perf_gates -- --ignored --nocapture --test-threads=1
//! ```
//!
//! * **Row-panel scaling** — on ≥ 2 cores, parallel assembly at 16 cells
//!   must beat single-threaded assembly by > 1.15× (the guard against
//!   accidental serialization), and by ≥ 3× with ≥ 4 threads on ≥ 6 cores.
//! * **Matrix-free beats dense** — at 24 cells the matrix-free FFT operator
//!   with preconditioned BiCGSTAB must beat dense assembly plus LU end to
//!   end, even on one core. At every size where dense runs, its matvec must
//!   match the dense matrix to ≤ 1e-10.
//!
//! * **Matrix-free matvec scaling** — on ≥ 2 cores, 20 matvecs of the
//!   20-cell matrix-free operator built with one worker per core must beat
//!   the same matvecs built serially by ≥ 1.3× (best of five alternating
//!   rounds), with bit-equal outputs.
//!
//! The deterministic equivalence gates (batched vs scalar assembly ≤ 1e-12,
//! bit-identical parallel assembly, bit-identical executors) are ordinary
//! unit and integration tests of `rough-core` and `rough-engine`.

use roughsim::core::assembly3d::{assemble_system_with, SwmSystem};
use roughsim::core::mesh::PatchMesh;
use roughsim::core::parallel::available_cores;
use roughsim::core::solver::{solve_operator, solve_system};
use roughsim::core::MatrixFreeOperator;
use roughsim::em::green::PeriodicGreen3d;
use roughsim::numerics::iterative::LinearOperator;
use roughsim::prelude::*;
use std::time::Instant;

/// The Fig. 5 conducting half-spheroid: h = 5.8 µm, base radius 4.7 µm, on a
/// 12 µm periodic tile, meshed at `cells` per side.
fn fig5_mesh(cells: usize) -> PatchMesh {
    let tile = 12.0e-6;
    let (height, base_radius) = (5.8e-6, 4.7e-6);
    PatchMesh::from_surface(&RoughSurface::from_fn(cells, tile, |x, y| {
        let (dx, dy) = (x - 0.5 * tile, y - 0.5 * tile);
        let r2 = (dx * dx + dy * dy) / (base_radius * base_radius);
        if r2 < 1.0 {
            height * (1.0 - r2).sqrt()
        } else {
            0.0
        }
    }))
}

/// The paper stackup's two media at 16 GHz, where the conductor's
/// `|k₂|L ≈ 33` makes its spectral series widest.
struct Media {
    g1: PeriodicGreen3d,
    g2: PeriodicGreen3d,
    beta: c64,
    k1: c64,
}

impl Media {
    fn new(mesh: &PatchMesh) -> Self {
        let stack = Stackup::paper_baseline();
        let f = GigaHertz::new(16.0).into();
        Self {
            g1: PeriodicGreen3d::new(stack.k1(f), mesh.patch_length()),
            g2: PeriodicGreen3d::new(stack.k2(f), mesh.patch_length()),
            beta: stack.beta(f),
            k1: stack.k1(f),
        }
    }

    /// Assembles the dense system and returns it with its wall time.
    fn assemble(&self, mesh: &PatchMesh, parallelism: AssemblyParallelism) -> (SwmSystem, f64) {
        let start = Instant::now();
        let system = assemble_system_with(
            mesh,
            &self.g1,
            &self.g2,
            self.beta,
            self.k1,
            AssemblyScheme::default(),
            KernelEval::Batched,
            parallelism,
        );
        (system, start.elapsed().as_secs_f64())
    }
}

/// Deterministic xorshift-filled complex vector for the matvec cross-check.
fn random_vector(dim: usize, mut state: u64) -> Vec<c64> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..dim).map(|_| c64::new(next(), next())).collect()
}

#[test]
#[ignore = "timing tier: seconds of wall-clock assembly; run with --release -- --ignored --test-threads=1"]
fn row_panel_assembly_scales_at_16_cells() {
    let cores = available_cores();
    if cores < 2 {
        println!("single available core: row-panel speedups are ~1x by construction; gate skipped");
        return;
    }
    let mesh = fig5_mesh(16);
    let media = Media::new(&mesh);
    let (_, serial_s) = media.assemble(&mesh, AssemblyParallelism::Serial);
    println!("cells=16 on {cores} cores: serial assembly {serial_s:.2} s");
    let mut best = 0.0f64;
    let mut best_four_plus = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let (_, parallel_s) = media.assemble(&mesh, AssemblyParallelism::workers(threads));
        let speedup = serial_s / parallel_s;
        println!("  threads={threads}: {parallel_s:.2} s ({speedup:.2}x)");
        best = best.max(speedup);
        if threads >= 4 {
            best_four_plus = best_four_plus.max(speedup);
        }
    }
    assert!(
        best > 1.15,
        "parallel assembly is not faster than serial at cells=16 (best {best:.2}x on {cores} \
         cores): row-panel parallelism regressed"
    );
    // A contended 4-vCPU runner can measure 2.5–2.9× from single-shot
    // timings, so the ≥ 3× target is enforced only with ≥ 6 cores.
    if cores >= 6 {
        assert!(
            best_four_plus >= 3.0,
            "expected ≥ 3x assembly speedup at cells=16 with ≥ 4 threads on {cores} cores, \
             measured {best_four_plus:.2}x"
        );
    }
}

#[test]
#[ignore = "timing tier: tens of seconds of dense and matrix-free solves; run with --release -- --ignored --test-threads=1"]
fn matrix_free_beats_dense_at_24_cells() {
    // Dense stops at 24 cells: its LU grows as cells⁶, so the 32-cell row
    // checks the matrix-free solve alone.
    let dense_limit = 24;
    let AssemblyScheme::LocallyCorrected(near) = AssemblyScheme::default();
    let mut crossover = None;
    for cells in [8usize, 12, 16, 24, 32] {
        let mesh = fig5_mesh(cells);
        let media = Media::new(&mesh);

        let start = Instant::now();
        let mf = MatrixFreeOperator::assemble(
            &mesh,
            &media.g1,
            &media.g2,
            media.beta,
            media.k1,
            near,
            MatrixFreePolicy::default(),
            KernelEval::Batched,
            AssemblyParallelism::Serial,
        );
        let precond = mf.preconditioner();
        let (_, stats) = solve_operator(
            &mf,
            mf.rhs(),
            SolverKind::Bicgstab { tolerance: 1e-10 },
            Some(&precond),
        )
        .expect("matrix-free solve");
        let mf_s = start.elapsed().as_secs_f64();
        assert!(
            stats.relative_residual <= 1e-8,
            "cells={cells}: matrix-free residual {:.2e}",
            stats.relative_residual
        );
        // The near-field preconditioner holds BiCGSTAB at 5–6 iterations
        // from 8 to 32 cells (the block-diagonal one it replaced needed 7
        // to 13).
        assert!(
            stats.iterations <= 8,
            "cells={cells}: matrix-free solve needed {} iterations, more than 8",
            stats.iterations
        );
        if cells > dense_limit {
            println!(
                "cells={cells}: matrix-free {mf_s:.2} s ({} iterations)",
                stats.iterations
            );
            continue;
        }

        let (system, assembly_s) = media.assemble(&mesh, AssemblyParallelism::Serial);
        let start = Instant::now();
        let (_, dense_stats) =
            solve_system(&system.matrix, &system.rhs, SolverKind::DirectLu).expect("dense solve");
        let dense_s = assembly_s + start.elapsed().as_secs_f64();
        assert!(
            dense_stats.relative_residual <= 1e-8,
            "cells={cells}: dense residual {:.2e}",
            dense_stats.relative_residual
        );

        let x = random_vector(2 * cells * cells, 0x5eed_0000 + cells as u64);
        let (yd, ym) = (system.matrix.matvec(&x), mf.apply(&x));
        let scale = yd.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        let diff = yd
            .iter()
            .zip(&ym)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max)
            / scale;
        println!(
            "cells={cells}: dense {dense_s:.2} s, matrix-free {mf_s:.2} s ({:.2}x, {} iterations), \
             matvec diff {diff:.2e}",
            dense_s / mf_s,
            stats.iterations
        );
        assert!(
            diff <= 1e-10,
            "cells={cells}: matrix-free matvec differs from dense by {diff:.2e}"
        );
        if mf_s < dense_s {
            crossover.get_or_insert(cells);
        }
        if cells == dense_limit {
            assert!(
                mf_s < dense_s,
                "matrix-free ({mf_s:.2} s) did not beat dense ({dense_s:.2} s) at cells={cells}: \
                 the FFT operator's crossover regressed"
            );
        }
    }
    println!("matrix-free first beats dense at cells={crossover:?}");
}

#[test]
#[ignore = "timing tier: seconds of matrix-free setup and matvecs; run with --release -- --ignored --test-threads=1"]
fn matrix_free_matvec_scales_on_two_cores() {
    let cores = available_cores();
    if cores < 2 {
        println!("single available core: matvec speedups are ~1x by construction; gate skipped");
        return;
    }
    let mesh = fig5_mesh(20);
    let media = Media::new(&mesh);
    let AssemblyScheme::LocallyCorrected(near) = AssemblyScheme::default();
    let build = |parallelism| {
        MatrixFreeOperator::assemble(
            &mesh,
            &media.g1,
            &media.g2,
            media.beta,
            media.k1,
            near,
            MatrixFreePolicy::default(),
            KernelEval::Batched,
            parallelism,
        )
    };
    let operators = [
        build(AssemblyParallelism::Serial),
        build(AssemblyParallelism::workers(0)),
    ];
    let x = random_vector(2 * mesh.len(), 0x5eed_0020);
    // Alternating rounds, the best of five for each operator, so a slow
    // spell on a shared host does not decide the gate.
    let mut outputs = [Vec::new(), Vec::new()];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for ((mf, y), best) in operators.iter().zip(&mut outputs).zip(&mut best) {
            let start = Instant::now();
            for _ in 0..20 {
                *y = mf.apply(&x);
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let [serial_s, parallel_s] = best;
    let speedup = serial_s / parallel_s;
    println!(
        "cells=20 on {cores} cores: 20 matvecs serial {:.1} ms, parallel {:.1} ms ({speedup:.2}x)",
        serial_s * 1e3,
        parallel_s * 1e3
    );
    let bits = |y: &[c64]| -> Vec<(u64, u64)> {
        y.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert_eq!(
        bits(&outputs[0]),
        bits(&outputs[1]),
        "parallel matvec is not bit-identical to the serial one"
    );
    assert!(
        speedup >= 1.3,
        "parallel matvec is {speedup:.2}x the serial one at cells=20 on {cores} cores \
         (expected ≥ 1.3x): the matvec's worker split regressed"
    );
}
