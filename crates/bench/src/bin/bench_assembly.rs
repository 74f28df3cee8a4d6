//! Assembly throughput benchmark: scalar vs batched Ewald kernel evaluation
//! plus an intra-solve thread-scaling sweep, emitted as machine-readable
//! `BENCH_assembly.json` for CI trend tracking.
//!
//! Assembles the Fig. 5 half-spheroid scenario (12 µm tile, 16 GHz — the
//! `|k|L ≈ 33` high-frequency regime where the conductor-side spectral series
//! is widest) at 8/12/16 cells per side under both [`KernelEval`] strategies,
//! recording kernel-bearing matrix entries per second and the end-to-end
//! solve time (assembly + dense factorization + power integral). The batched
//! path is then re-run with row panels spread over 1/2/4/8 assembly threads
//! ([`AssemblyParallelism`]).
//!
//! Every run enforces the equivalence guarantees it advertises:
//!
//! * batched and scalar system matrices agree to ≤ 1e-12 relative;
//! * every parallel assembly is **bit-identical** to the single-threaded
//!   batched one;
//! * on multi-core hosts the parallel path must be measurably faster than
//!   the single-threaded batched path at the largest grid (the guard against
//!   accidental serialization). Speedups are only meaningful up to the
//!   `available_cores` recorded in the output — on a single-core host the
//!   sweep degenerates to ~1× and the scaling assertion is skipped.
//!
//! A second sweep compares operator representations end to end: dense
//! assembly + direct LU against the matrix-free FFT operator + preconditioned
//! BiCGSTAB at 8/12/16/24/32 cells per side. Dense runs up to cells=24; the
//! cells=32 dense cost is **extrapolated** (assembly as cells⁴, LU as
//! unknowns³) and recorded as such, while the matrix-free path runs for real
//! at every size. At each size where dense runs, the matrix-free matvec is
//! checked against the dense matrix on a random vector, and at cells=24 the
//! matrix-free end-to-end time must beat dense even on a single core — the
//! sub-quadratic-scaling regression gate.
//!
//! `--full` has no effect here; the grid sizes are fixed so the emitted
//! numbers are comparable across runs.

use rough_core::assembly3d::assemble_system_with;
use rough_core::mesh::PatchMesh;
use rough_core::parallel::available_cores;
use rough_core::solver::{solve_operator, solve_system, SolverKind};
use rough_core::{
    AssemblyParallelism, AssemblyScheme, KernelEval, MatrixFreeOperator, MatrixFreePolicy,
};
use rough_em::material::Stackup;
use rough_em::units::GigaHertz;
use rough_numerics::c64;
use rough_numerics::iterative::LinearOperator;
use rough_numerics::linalg::CMatrix;
use rough_surface::RoughSurface;
use std::fmt::Write as _;
use std::time::Instant;

/// The Fig. 5 conducting half-spheroid: h = 5.8 µm, base radius 4.7 µm, on a
/// 12 µm periodic tile.
fn fig5_surface(cells: usize) -> RoughSurface {
    let tile = 12.0e-6;
    let (height, base_radius) = (5.8e-6, 4.7e-6);
    RoughSurface::from_fn(cells, tile, |x, y| {
        let dx = x - 0.5 * tile;
        let dy = y - 0.5 * tile;
        let r2 = (dx * dx + dy * dy) / (base_radius * base_radius);
        if r2 < 1.0 {
            height * (1.0 - r2).sqrt()
        } else {
            0.0
        }
    })
}

struct Timing {
    assembly_s: f64,
    solve_s: f64,
    matrix: CMatrix,
}

fn run_once(surface: &RoughSurface, eval: KernelEval, parallelism: AssemblyParallelism) -> Timing {
    let stack = Stackup::paper_baseline();
    let frequency = GigaHertz::new(16.0).into();
    let mesh = PatchMesh::from_surface(surface);
    let length = surface.patch_length();
    let g1 = rough_em::green::PeriodicGreen3d::new(stack.k1(frequency), length);
    let g2 = rough_em::green::PeriodicGreen3d::new(stack.k2(frequency), length);

    let start = Instant::now();
    let system = assemble_system_with(
        &mesh,
        &g1,
        &g2,
        stack.beta(frequency),
        stack.k1(frequency),
        AssemblyScheme::default(),
        eval,
        parallelism,
    );
    let assembly_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (_solution, stats) = solve_system(&system.matrix, &system.rhs, SolverKind::DirectLu)
        .expect("dense solve of the benchmark system");
    let solve_s = start.elapsed().as_secs_f64();
    assert!(
        stats.relative_residual < 1e-8,
        "benchmark solve did not converge: residual {}",
        stats.relative_residual
    );

    Timing {
        assembly_s,
        solve_s,
        matrix: system.matrix,
    }
}

/// Largest entry-wise difference between the two system matrices, relative to
/// the largest scalar-path entry magnitude.
fn max_relative_difference(a: &CMatrix, b: &CMatrix) -> f64 {
    let mut scale = 0.0f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            scale = scale.max(a[(i, j)].abs());
        }
    }
    let mut max = 0.0f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            max = max.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    max / scale
}

/// Whether every entry of the two matrices matches bit for bit.
fn bit_identical(a: &CMatrix, b: &CMatrix) -> bool {
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let (x, y) = (a[(i, j)], b[(i, j)]);
            if x.re.to_bits() != y.re.to_bits() || x.im.to_bits() != y.im.to_bits() {
                return false;
            }
        }
    }
    true
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

/// Dense vs matrix-free operator scaling sweep. Returns the JSON rows for the
/// `"scaling"` section of `BENCH_assembly.json`.
fn operator_scaling_sweep() -> Vec<String> {
    let grids = [8usize, 12, 16, 24, 32];
    // Largest grid the dense path actually runs at; beyond it dense numbers
    // are extrapolated from this anchor (assembly ∝ cells⁴, LU ∝ unknowns³).
    let dense_limit = 24usize;
    let AssemblyScheme::LocallyCorrected(policy) = AssemblyScheme::default();

    println!("\noperator scaling sweep: dense+DirectLu vs matrix-free FFT+preconditioned BiCGSTAB");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>9} {:>6} {:>14}",
        "cells", "unknowns", "dense e2e", "mf e2e", "speedup", "iters", "matvec diff"
    );

    let mut rows = Vec::new();
    let mut dense_anchor: Option<(usize, f64, f64)> = None;
    for &cells in &grids {
        let surface = fig5_surface(cells);
        let stack = Stackup::paper_baseline();
        let frequency = GigaHertz::new(16.0).into();
        let mesh = PatchMesh::from_surface(&surface);
        let length = surface.patch_length();
        let g1 = rough_em::green::PeriodicGreen3d::new(stack.k1(frequency), length);
        let g2 = rough_em::green::PeriodicGreen3d::new(stack.k2(frequency), length);
        let n = cells * cells;

        let start = Instant::now();
        let mf = MatrixFreeOperator::assemble(
            &mesh,
            &g1,
            &g2,
            stack.beta(frequency),
            stack.k1(frequency),
            policy,
            MatrixFreePolicy::default(),
            KernelEval::Batched,
            AssemblyParallelism::Serial,
        );
        let mf_setup_s = start.elapsed().as_secs_f64();
        let precond = mf.preconditioner();

        let start = Instant::now();
        let (_, stats) = solve_operator(
            &mf,
            mf.rhs(),
            SolverKind::Bicgstab { tolerance: 1e-10 },
            Some(&precond),
        )
        .expect("matrix-free benchmark solve");
        let mf_solve_s = start.elapsed().as_secs_f64();
        assert!(
            stats.relative_residual < 1e-8,
            "cells={cells}: matrix-free solve did not converge ({})",
            stats.relative_residual
        );
        let mf_e2e = mf_setup_s + mf_solve_s;

        let (dense_assembly_s, dense_solve_s, extrapolated, matvec_diff) = if cells <= dense_limit {
            let dense = run_once(&surface, KernelEval::Batched, AssemblyParallelism::Serial);
            // Cross-check the matrix-free matvec against the dense matrix on
            // a random vector — the same equivalence the tier-1 tests pin,
            // re-verified on every benchmark grid.
            let x = random_vector(2 * n, 0x5eed_0000 + cells as u64);
            let yd = dense.matrix.matvec(&x);
            let ym = mf.apply(&x);
            let scale = yd.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
            let diff = yd
                .iter()
                .zip(&ym)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max)
                / scale;
            assert!(
                diff <= 1e-8,
                "cells={cells}: matrix-free matvec diverged from dense ({diff:.3e})"
            );
            dense_anchor = Some((cells, dense.assembly_s, dense.solve_s));
            (dense.assembly_s, dense.solve_s, false, Some(diff))
        } else {
            let (anchor_cells, anchor_assembly, anchor_solve) =
                dense_anchor.expect("dense anchor measured before extrapolating");
            let ratio = cells as f64 / anchor_cells as f64;
            // Assembly fills 2·(2N)² kernel entries: cells⁴. LU on 2N
            // unknowns: cells⁶.
            (
                anchor_assembly * ratio.powi(4),
                anchor_solve * ratio.powi(6),
                true,
                None,
            )
        };
        let dense_e2e = dense_assembly_s + dense_solve_s;
        let speedup = dense_e2e / mf_e2e;

        println!(
            "{:>6} {:>10} {:>12.2} s{} {:>12.2} s {:>8.2}x {:>6} {:>14}",
            cells,
            2 * n,
            dense_e2e,
            if extrapolated { "*" } else { " " },
            mf_e2e,
            speedup,
            stats.iterations,
            matvec_diff.map_or("-".to_string(), |d| format!("{d:.2e}")),
        );

        // The sub-quadratic-scaling gate: at the largest grid where dense
        // actually runs, the matrix-free path must win end to end — even on
        // the single-core container this benchmark ships from.
        if cells == dense_limit {
            assert!(
                mf_e2e < dense_e2e,
                "matrix-free ({mf_e2e:.2} s) did not beat dense ({dense_e2e:.2} s) at \
                 cells={cells} — the FFT operator's crossover regressed"
            );
        }

        rows.push(format!(
            "    {{\"cells\": {cells}, \"unknowns\": {unknowns}, \
             \"dense_assembly_s\": {da:.4}, \"dense_solve_s\": {ds:.4}, \
             \"dense_end_to_end_s\": {de:.4}, \"dense_extrapolated\": {extrapolated}, \
             \"mf_setup_s\": {ms:.4}, \"mf_solve_s\": {mo:.4}, \
             \"mf_end_to_end_s\": {me:.4}, \"mf_iterations\": {iters}, \
             \"mf_slab_levels\": {levels}, \"mf_fft_planes\": {planes}, \
             \"speedup_vs_dense\": {speedup:.3}, \"matvec_rel_diff\": {diff}}}",
            unknowns = 2 * n,
            da = dense_assembly_s,
            ds = dense_solve_s,
            de = dense_e2e,
            ms = mf_setup_s,
            mo = mf_solve_s,
            me = mf_e2e,
            iters = stats.iterations,
            levels = mf.slab_levels(),
            planes = mf.fft_planes(),
            diff = matvec_diff.map_or("null".to_string(), |d| format!("{d:.3e}")),
        ));
    }
    println!("(* = dense cost extrapolated from the cells=24 anchor, not measured)");
    rows
}

fn main() {
    let grids = [8usize, 12, 16];
    let thread_sweep = [1usize, 2, 4, 8];
    let cores = available_cores();
    println!(
        "assembly benchmark: Fig. 5 half-spheroid, 16 GHz, scalar vs batched kernel path, \
         thread-scaling sweep on {cores} available core(s)"
    );
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9} {:>12}",
        "cells",
        "unknowns",
        "scalar asm",
        "batched asm",
        "speedup",
        "scalar e2e",
        "batched e2e",
        "speedup",
        "max rel diff"
    );

    let mut rows = Vec::new();
    // The cells=16 parallel speedups, for the anti-serialization guard.
    let mut guard_speedups: Vec<(usize, f64)> = Vec::new();
    for &cells in &grids {
        let surface = fig5_surface(cells);
        let n = cells * cells;
        // Kernel-bearing interaction entries: two media × N² (S, D) pairs.
        let entries = 2 * n * n;

        let scalar = run_once(&surface, KernelEval::Scalar, AssemblyParallelism::Serial);
        let batched = run_once(&surface, KernelEval::Batched, AssemblyParallelism::Serial);
        let diff = max_relative_difference(&scalar.matrix, &batched.matrix);
        assert!(
            diff <= 1e-12,
            "cells={cells}: batched assembly diverged from the scalar oracle ({diff:.3e})"
        );

        let scalar_e2e = scalar.assembly_s + scalar.solve_s;
        let batched_e2e = batched.assembly_s + batched.solve_s;
        let assembly_speedup = scalar.assembly_s / batched.assembly_s;
        let solve_speedup = scalar_e2e / batched_e2e;
        println!(
            "{:>6} {:>10} {:>12.2} s {:>12.2} s {:>8.2}x {:>12.2} s {:>12.2} s {:>8.2}x {:>12.2e}",
            cells,
            2 * n,
            scalar.assembly_s,
            batched.assembly_s,
            assembly_speedup,
            scalar_e2e,
            batched_e2e,
            solve_speedup,
            diff
        );

        // Thread-scaling sweep over the batched path. Threads=1 goes through
        // the same parallel entry point with one worker, pinning the
        // knob's serial-equivalence; higher counts must stay bit-identical.
        let mut sweep_rows = Vec::new();
        for &threads in &thread_sweep {
            let parallel = run_once(
                &surface,
                KernelEval::Batched,
                AssemblyParallelism::workers(threads),
            );
            assert!(
                bit_identical(&batched.matrix, &parallel.matrix),
                "cells={cells}: {threads}-thread assembly is not bit-identical to serial"
            );
            let speedup = batched.assembly_s / parallel.assembly_s;
            println!(
                "       threads={threads}: assembly {:.2} s ({speedup:.2}x vs 1-thread batched, bit-identical)",
                parallel.assembly_s
            );
            if cells == 16 {
                guard_speedups.push((threads, speedup));
            }
            sweep_rows.push(format!(
                "{{\"threads\": {threads}, \"assembly_s\": {:.4}, \
                 \"speedup_vs_batched_1t\": {speedup:.3}, \"bit_identical\": true}}",
                parallel.assembly_s
            ));
        }

        rows.push(format!(
            "    {{\"cells\": {cells}, \"unknowns\": {unknowns}, \"entries\": {entries}, \
             \"scalar_assembly_s\": {sa:.4}, \"batched_assembly_s\": {ba:.4}, \
             \"scalar_entries_per_sec\": {se:.1}, \"batched_entries_per_sec\": {be:.1}, \
             \"assembly_speedup\": {asp:.3}, \
             \"scalar_solve_s\": {ss:.4}, \"batched_solve_s\": {bs:.4}, \
             \"scalar_end_to_end_s\": {see:.4}, \"batched_end_to_end_s\": {bee:.4}, \
             \"end_to_end_speedup\": {esp:.3}, \"max_rel_diff\": {diff:.3e}, \
             \"thread_sweep\": [{sweep}]}}",
            unknowns = 2 * n,
            sa = scalar.assembly_s,
            ba = batched.assembly_s,
            se = entries as f64 / scalar.assembly_s.max(1e-9),
            be = entries as f64 / batched.assembly_s.max(1e-9),
            asp = assembly_speedup,
            ss = scalar.solve_s,
            bs = batched.solve_s,
            see = scalar_e2e,
            bee = batched_e2e,
            esp = solve_speedup,
            sweep = sweep_rows.join(", "),
        ));
    }

    // Anti-serialization guard: with real cores available, the parallel path
    // at the largest grid must beat the single-threaded batched path. (On a
    // single-core host every speedup is ~1× by construction; the nightly CI
    // runner is multi-core, so accidental serialization cannot slip through.)
    if cores >= 2 {
        let best = guard_speedups
            .iter()
            .map(|&(_, s)| s)
            .fold(0.0f64, f64::max);
        assert!(
            best > 1.15,
            "parallel assembly is not faster than single-threaded batched at cells=16 \
             (best speedup {best:.2}x on {cores} cores) — row-panel parallelism regressed"
        );
        // The ≥3× scaling target of the parallel row-panel path: reported on
        // any multi-core host, enforced outright only with ≥6 cores — a
        // contended 4-vCPU CI runner can legitimately measure 2.5–2.9× from
        // these single-shot timings, and a flaking nightly guard is worse
        // than a slightly conservative one (the ≥1.15× anti-serialization
        // assert above is the hard regression gate).
        let at_four_plus = guard_speedups
            .iter()
            .filter(|&&(t, _)| t >= 4)
            .map(|&(_, s)| s)
            .fold(0.0f64, f64::max);
        println!(
            "cells=16 best speedup with ≥4 threads: {at_four_plus:.2}x \
             (target ≥3x on ≥4 real cores)"
        );
        if cores >= 6 {
            assert!(
                at_four_plus >= 3.0,
                "expected ≥3x assembly speedup at cells=16 with ≥4 threads on {cores} cores, \
                 measured {at_four_plus:.2}x"
            );
        }
    } else {
        println!(
            "note: single available core — thread-scaling speedups are ~1x by construction \
             and the scaling guard is skipped (see available_cores in the JSON)"
        );
    }

    let scaling_rows = operator_scaling_sweep();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"assembly-kernel-eval\",");
    let _ = writeln!(json, "  \"scenario\": \"fig5-half-spheroid\",");
    let _ = writeln!(json, "  \"frequency_ghz\": 16.0,");
    let _ = writeln!(json, "  \"assembly_scheme\": \"locally-corrected\",");
    let _ = writeln!(json, "  \"equivalence_bound\": 1e-12,");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    let _ = writeln!(json, "  \"cases\": [");
    let _ = writeln!(json, "{}", rows.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"scaling\": [");
    let _ = writeln!(json, "{}", scaling_rows.join(",\n"));
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write("BENCH_assembly.json", &json).expect("write BENCH_assembly.json");
    println!(
        "wrote BENCH_assembly.json (batched matrices verified against the scalar oracle; \
         parallel matrices bit-identical to serial)"
    );
}
