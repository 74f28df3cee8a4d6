//! Complex fast Fourier transforms in one, two and three dimensions.
//!
//! Every length whose prime factors are all 2, 3 or 5 runs through a
//! Stockham autosort kernel with radix-2/3/4/5 passes and precomputed
//! twiddles. Any other length (one with a prime factor above 5) is handled by
//! the Bluestein chirp-z algorithm: the transform is re-expressed as a
//! circular convolution of the smallest 2/3/5-smooth length `≥ 2N−1`
//! ([`next_smooth_len`]) and evaluated with the same kernel, so *any* length
//! is O(N log N).
//!
//! Each call builds one plan per axis (twiddles, and for Bluestein the chirp
//! and its transformed convolution kernel) and reuses it, with one scratch
//! buffer, for every line along that axis; a plan costs about one line's
//! transform.
//!
//! The FFT is used by the spectral rough-surface synthesis (generating a
//! stationary Gaussian surface with a prescribed power spectral density, paper
//! §II / Fig. 2) and by the matrix-free block-Toeplitz matvec of
//! `rough-core`, whose lateral axes have the mesh side (often 12, 20 or 24
//! cells) and whose z axis is sized by [`next_smooth_len`]. The matvec's
//! cubes hold data in only their leading planes, so it calls
//! [`fft3_in_place_live`], which skips the x and y transforms of the other
//! planes.

use crate::complex::c64;
use std::f64::consts::PI;

/// Error type of the transforms. It has no values: every length is
/// supported, so `let Ok(()) = fft_in_place(..);` is irrefutable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {}

impl std::fmt::Display for FftError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for FftError {}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward transform `X_k = Σ x_n e^{-2πj nk/N}` (no scaling).
    Forward,
    /// Inverse transform, scaled by `1/N` so that `ifft(fft(x)) == x`.
    Inverse,
}

impl Direction {
    /// Sign of the exponent.
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// The smallest `m ≥ n` whose prime factors are all 2, 3 or 5 (1 for
/// `n ≤ 1`): the lengths the FFT runs without the Bluestein detour.
pub fn next_smooth_len(n: usize) -> usize {
    (n.max(1)..)
        .find(|&m| is_smooth(m))
        .expect("smooth numbers are unbounded")
}

fn is_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// `z · (s·j)` for `s = ±1`.
#[inline(always)]
fn times_j(z: c64, s: f64) -> c64 {
    c64::new(-s * z.im, s * z.re)
}

/// One radix-`R` Stockham pass over `stride` interleaved sequences of the
/// current length `R·m`: reads `x[q + stride·(p + j·m)]`, writes the
/// butterfly outputs times `w^{p·k}` to `y[q + stride·(R·p + k)]`.
#[inline(always)]
fn pass<const R: usize>(
    x: &[c64],
    y: &mut [c64],
    stride: usize,
    twiddles: &[c64],
    butterfly: impl Fn([c64; R]) -> [c64; R],
) {
    let m = x.len() / (stride * R);
    for (p, (w, out)) in twiddles
        .chunks_exact(R - 1)
        .zip(y.chunks_exact_mut(stride * R))
        .enumerate()
    {
        let inputs: [&[c64]; R] = std::array::from_fn(|j| &x[stride * (p + j * m)..][..stride]);
        for q in 0..stride {
            let b = butterfly(std::array::from_fn(|j| inputs[j][q]));
            out[q] = b[0];
            for k in 1..R {
                out[q + stride * k] = b[k] * w[k - 1];
            }
        }
    }
}

/// One radix pass of a [`Stockham`] plan.
struct Stage {
    radix: usize,
    /// `w^{p·k}` of the pass, `radix − 1` entries (k = 1..radix) per `p`.
    twiddles: Vec<c64>,
}

/// Stockham autosort transform of one 2/3/5-smooth length: consecutive
/// passes ping-pong between the data and a scratch buffer, and the output
/// lands in natural order without a bit-reversal step.
struct Stockham {
    sign: f64,
    stages: Vec<Stage>,
}

impl Stockham {
    fn new(n: usize, sign: f64) -> Self {
        let mut radices = Vec::new();
        let mut rest = n;
        for r in [4, 2, 3, 5] {
            while rest.is_multiple_of(r) {
                radices.push(r);
                rest /= r;
            }
        }
        debug_assert_eq!(rest, 1, "{n} is not 2/3/5-smooth");
        let mut done = 1; // product of the radices already applied
        let stages = radices
            .into_iter()
            .map(|radix| {
                let m = n / (done * radix);
                let twiddles = (0..m)
                    .flat_map(|p| (1..radix).map(move |k| (p, k)))
                    .map(|(p, k)| {
                        c64::from_polar(1.0, sign * 2.0 * PI * (done * p * k) as f64 / n as f64)
                    })
                    .collect();
                done *= radix;
                Stage { radix, twiddles }
            })
            .collect();
        Self { sign, stages }
    }

    /// Transforms the `batch` sequences interleaved in `data` (element `t`
    /// of sequence `q` at `data[q + batch·t]`); `work` has `data`'s length.
    fn run(&self, data: &mut [c64], work: &mut [c64], batch: usize) {
        let s = self.sign;
        let (c3, s3) = (-0.5, s * (3f64.sqrt() / 2.0));
        let (c51, c52) = ((0.4 * PI).cos(), (0.8 * PI).cos());
        let (s51, s52) = (s * (0.4 * PI).sin(), s * (0.8 * PI).sin());
        let mut stride = batch;
        let mut in_data = true;
        for stage in &self.stages {
            let (x, y): (&[c64], &mut [c64]) = if in_data { (data, work) } else { (work, data) };
            let tw = &stage.twiddles;
            match stage.radix {
                2 => pass::<2>(x, y, stride, tw, |[a0, a1]| [a0 + a1, a0 - a1]),
                3 => pass::<3>(x, y, stride, tw, |[a0, a1, a2]| {
                    let t1 = a1 + a2;
                    let t2 = a0 + t1.scale(c3);
                    let t3 = times_j(a1 - a2, s3);
                    [a0 + t1, t2 + t3, t2 - t3]
                }),
                4 => pass::<4>(x, y, stride, tw, |[a0, a1, a2, a3]| {
                    let (t0, t1) = (a0 + a2, a0 - a2);
                    let (t2, t3) = (a1 + a3, times_j(a1 - a3, s));
                    [t0 + t2, t1 + t3, t0 - t2, t1 - t3]
                }),
                _ => pass::<5>(x, y, stride, tw, |[a0, a1, a2, a3, a4]| {
                    let (b1, b2) = (a1 + a4, a2 + a3);
                    let (d1, d2) = (a1 - a4, a2 - a3);
                    let r1 = a0 + b1.scale(c51) + b2.scale(c52);
                    let r2 = a0 + b1.scale(c52) + b2.scale(c51);
                    let i1 = times_j(d1.scale(s51) + d2.scale(s52), 1.0);
                    let i2 = times_j(d1.scale(s52) - d2.scale(s51), 1.0);
                    [a0 + b1 + b2, r1 + i1, r2 + i2, r2 - i2, r1 - i1]
                }),
            }
            stride *= stage.radix;
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(work);
        }
    }
}

/// Bluestein chirp-z plan for a length with a prime factor above 5: with
/// `nk = (n² + k² − (k−n)²)/2` the DFT becomes a circular convolution of
/// length `M = next_smooth_len(2N−1)`, evaluated with a forward [`Stockham`]
/// plan (the inverse transform of the convolution runs as a conjugated
/// forward one).
struct Bluestein {
    /// `e^{±jπ i²/N}` for `i < N`.
    chirp: Vec<c64>,
    /// Forward transform of the conjugate chirp laid out circularly,
    /// pre-scaled by `1/M`.
    kernel: Vec<c64>,
    inner: Stockham,
}

impl Bluestein {
    fn new(n: usize, sign: f64) -> Self {
        let m = next_smooth_len(2 * n - 1);
        let inner = Stockham::new(m, -1.0);
        // Reduce the quadratic argument mod 2N before touching floating
        // point, so large i² never loses angular precision.
        let chirp: Vec<c64> = (0..n)
            .map(|i| {
                let reduced = ((i as u128 * i as u128) % (2 * n as u128)) as f64;
                c64::from_polar(1.0, sign * PI * reduced / n as f64)
            })
            .collect();
        let mut kernel = vec![c64::zero(); m];
        kernel[0] = c64::one();
        for i in 1..n {
            kernel[i] = chirp[i].conj();
            kernel[m - i] = chirp[i].conj();
        }
        inner.run(&mut kernel, &mut vec![c64::zero(); m], 1);
        let scale = 1.0 / m as f64;
        for z in &mut kernel {
            *z = z.scale(scale);
        }
        Self {
            chirp,
            kernel,
            inner,
        }
    }

    /// Same contract as [`Stockham::run`], except that `work` holds `2M`.
    fn run(&self, data: &mut [c64], work: &mut [c64], batch: usize) {
        let (a, scratch) = work.split_at_mut(self.kernel.len());
        for q in 0..batch {
            a.fill(c64::zero());
            for (i, w) in self.chirp.iter().enumerate() {
                a[i] = data[q + batch * i] * *w;
            }
            self.inner.run(a, scratch, 1);
            for (z, k) in a.iter_mut().zip(&self.kernel) {
                *z = (*z * *k).conj();
            }
            self.inner.run(a, scratch, 1);
            for (k, w) in self.chirp.iter().enumerate() {
                data[q + batch * k] = a[k].conj() * *w;
            }
        }
    }
}

/// Unscaled transform of one length `≥ 2` and one direction.
enum Plan {
    Stockham(Stockham),
    Bluestein(Bluestein),
}

impl Plan {
    fn new(n: usize, direction: Direction) -> Self {
        if is_smooth(n) {
            Plan::Stockham(Stockham::new(n, direction.sign()))
        } else {
            Plan::Bluestein(Bluestein::new(n, direction.sign()))
        }
    }

    /// Transforms the `batch` sequences interleaved in `data`, growing
    /// `work` as needed.
    fn run(&self, data: &mut [c64], work: &mut Vec<c64>, batch: usize) {
        match self {
            Plan::Stockham(s) => s.run(data, grown(work, data.len()), batch),
            Plan::Bluestein(b) => b.run(data, grown(work, 2 * b.kernel.len()), batch),
        }
    }
}

/// The first `len` elements of `work`, grown with zeros if it is shorter.
fn grown(work: &mut Vec<c64>, len: usize) -> &mut [c64] {
    if work.len() < len {
        work.resize(len, c64::zero());
    }
    &mut work[..len]
}

/// Lines interleaved per kernel call when an axis is strided: contiguous
/// runs of this many elements keep the inner butterfly loop vectorizable
/// while the gathered block stays cache-resident.
const LINE_BATCH: usize = 32;

/// Transforms axis `len` of `data` viewed as row-major `outer × len × inner`
/// (unscaled).
fn transform_axis(data: &mut [c64], len: usize, inner: usize, direction: Direction) {
    if len <= 1 {
        return;
    }
    let plan = Plan::new(len, direction);
    let mut work = Vec::new();
    if inner <= LINE_BATCH {
        for block in data.chunks_exact_mut(len * inner) {
            plan.run(block, &mut work, inner);
        }
        return;
    }
    let mut lines = vec![c64::zero(); len * LINE_BATCH];
    for block in data.chunks_exact_mut(len * inner) {
        for c0 in (0..inner).step_by(LINE_BATCH) {
            let width = LINE_BATCH.min(inner - c0);
            let lines = &mut lines[..len * width];
            for (t, row) in lines.chunks_exact_mut(width).enumerate() {
                row.copy_from_slice(&block[t * inner + c0..][..width]);
            }
            plan.run(lines, &mut work, width);
            for (t, row) in lines.chunks_exact(width).enumerate() {
                block[t * inner + c0..][..width].copy_from_slice(row);
            }
        }
    }
}

/// Applies the `1/len` scale of an inverse transform of `len` points to
/// `data`, which may be only the kept part of the transformed buffer.
fn normalize(data: &mut [c64], len: usize, direction: Direction) {
    if direction == Direction::Inverse {
        let scale = 1.0 / len as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

/// In-place 1-D FFT of a complex buffer of **any** length.
///
/// Zero- and one-length buffers are no-ops.
///
/// # Errors
///
/// Never fails: [`FftError`] has no values.
pub fn fft_in_place(data: &mut [c64], direction: Direction) -> Result<(), FftError> {
    transform_axis(data, data.len(), 1, direction);
    normalize(data, data.len(), direction);
    Ok(())
}

/// Out-of-place 1-D forward FFT.
///
/// # Errors
///
/// See [`fft_in_place`].
pub fn fft(input: &[c64]) -> Result<Vec<c64>, FftError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, Direction::Forward)?;
    Ok(data)
}

/// Out-of-place 1-D inverse FFT (scaled by `1/N`).
///
/// # Errors
///
/// See [`fft_in_place`].
pub fn ifft(input: &[c64]) -> Result<Vec<c64>, FftError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, Direction::Inverse)?;
    Ok(data)
}

/// In-place 2-D FFT of a row-major `rows × cols` buffer of any dimensions.
///
/// # Errors
///
/// See [`fft_in_place`].
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn fft2_in_place(
    data: &mut [c64],
    rows: usize,
    cols: usize,
    direction: Direction,
) -> Result<(), FftError> {
    fft3_in_place(data, 1, rows, cols, direction)
}

/// In-place 3-D FFT of a `planes × rows × cols` buffer laid out plane-major
/// (index `(p·rows + r)·cols + c`), any dimensions.
///
/// Used by the matrix-free operator of `rough-core`. Each axis is
/// transformed in turn with one plan; the strided row and plane axes run
/// many interleaved lines per kernel call.
///
/// # Errors
///
/// See [`fft_in_place`].
///
/// # Panics
///
/// Panics if `data.len() != planes * rows * cols`.
pub fn fft3_in_place(
    data: &mut [c64],
    planes: usize,
    rows: usize,
    cols: usize,
    direction: Direction,
) -> Result<(), FftError> {
    assert_eq!(data.len(), planes * rows * cols, "buffer size mismatch");
    if data.is_empty() {
        return Ok(());
    }
    transform_axis(data, cols, 1, direction);
    transform_axis(data, rows, cols, direction);
    transform_axis(data, planes, rows * cols, direction);
    normalize(data, data.len(), direction);
    Ok(())
}

/// [`fft3_in_place`] for a cube whose planes from `live` on are zero on the
/// way in (forward) or not wanted on the way out (inverse): the x and y
/// transforms run on the first `live` planes only.
///
/// * **Forward** transforms x and y on the `live` planes, then z over all
///   planes. The x and y transforms of a zero plane are zero, so the output
///   has the bits of [`fft3_in_place`] (up to the sign of exact zeros).
/// * **Inverse** transforms z over all planes first, then y and x on the
///   `live` planes, and normalizes only those. The other planes are left
///   holding partial transforms. The axis order differs from
///   [`fft3_in_place`], so the live planes agree with it to rounding.
///
/// Used by the matrix-free operator of `rough-core`, whose spread cubes fill
/// only the slab's levels and whose gather reads only those back.
///
/// # Errors
///
/// See [`fft_in_place`].
///
/// # Panics
///
/// Panics if `data.len() != planes * rows * cols` or `live > planes`.
pub fn fft3_in_place_live(
    data: &mut [c64],
    planes: usize,
    rows: usize,
    cols: usize,
    live: usize,
    direction: Direction,
) -> Result<(), FftError> {
    assert_eq!(data.len(), planes * rows * cols, "buffer size mismatch");
    assert!(live <= planes, "{live} live planes of {planes}");
    if data.is_empty() {
        return Ok(());
    }
    let plane = rows * cols;
    if direction == Direction::Forward {
        transform_axis(&mut data[..live * plane], cols, 1, direction);
        transform_axis(&mut data[..live * plane], rows, cols, direction);
        transform_axis(data, planes, plane, direction);
    } else {
        transform_axis(data, planes, plane, direction);
        let head = &mut data[..live * plane];
        transform_axis(head, rows, cols, direction);
        transform_axis(head, cols, 1, direction);
        normalize(head, planes * plane, direction);
    }
    Ok(())
}

/// Frequency-sample ordering helper: the physical frequency (in cycles per
/// sample) corresponding to FFT bin `k` of an `n`-point transform.
///
/// Bins above `n/2` map to negative frequencies, matching the usual
/// `fftfreq` convention.
pub fn fft_frequency(k: usize, n: usize) -> f64 {
    let k = k as isize;
    let n_i = n as isize;
    let shifted = if k <= n_i / 2 { k } else { k - n_i };
    shifted as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn naive_dft(x: &[c64]) -> Vec<c64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = c64::zero();
                for (i, xi) in x.iter().enumerate() {
                    acc += *xi * c64::from_polar(1.0, -2.0 * PI * ((k * i) % n) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn arbitrary_lengths_match_naive_dft() {
        // Every length up to 64 (each radix and mix of radices, plus the
        // Bluestein fallback for 7, 11, 13, …), 100, the matrix-free plane
        // counts 300 and 512, and the primes 7, 11 and 97.
        for n in (1usize..=64).chain([100, 300, 512, 7, 11, 97]) {
            let x: Vec<c64> = (0..n)
                .map(|i| c64::new((i as f64 * 0.43).sin(), (i as f64 * 0.19).cos()))
                .collect();
            let fast = fft(&x).unwrap();
            let slow = naive_dft(&x);
            let scale = slow.iter().map(|z| z.abs()).fold(1.0, f64::max);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(close(*a, *b, 1e-11 * scale), "n={n} bin {k}");
            }
            let back = ifft(&fast).unwrap();
            for (i, (a, b)) in x.iter().zip(&back).enumerate() {
                assert!(close(*a, *b, 1e-12), "n={n} roundtrip sample {i}");
            }
        }
    }

    #[test]
    fn next_smooth_len_picks_the_smallest_smooth_length() {
        assert_eq!(next_smooth_len(0), 1);
        assert_eq!(next_smooth_len(1), 1);
        assert_eq!(next_smooth_len(7), 8);
        assert_eq!(next_smooth_len(13), 15);
        assert_eq!(next_smooth_len(291), 300);
        assert_eq!(next_smooth_len(512), 512);
        assert_eq!(next_smooth_len(2 * 97 - 1), 200);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![c64::zero(); 8];
        x[0] = c64::one();
        let spec = fft(&x).unwrap();
        assert!(spec.iter().all(|z| close(*z, c64::one(), 1e-14)));
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let x: Vec<c64> = (0..n)
            .map(|i| c64::from_polar(1.0, 2.0 * PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&x).unwrap();
        for (k, z) in spec.iter().enumerate() {
            if k == k0 {
                assert!(close(*z, c64::from_real(n as f64), 1e-10));
            } else {
                assert!(z.abs() < 1e-10, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 64;
        let x: Vec<c64> = (0..n)
            .map(|i| c64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!(close(*a, *b, 1e-12));
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 16;
        let x: Vec<c64> = (0..n)
            .map(|i| c64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let fast = fft(&x).unwrap();
        let slow = naive_dft(&x);
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!(close(*a, *b, 1e-10), "bin {k}");
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 128;
        let x: Vec<c64> = (0..n)
            .map(|i| c64::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).cos() * 0.5))
            .collect();
        let spec = fft(&x).unwrap();
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn fft2_roundtrip() {
        let rows = 8;
        let cols = 16;
        let orig: Vec<c64> = (0..rows * cols)
            .map(|i| c64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut work = orig.clone();
        fft2_in_place(&mut work, rows, cols, Direction::Forward).unwrap();
        fft2_in_place(&mut work, rows, cols, Direction::Inverse).unwrap();
        for (a, b) in orig.iter().zip(&work) {
            assert!(close(*a, *b, 1e-11));
        }
    }

    #[test]
    fn fft2_non_power_of_two_roundtrip() {
        let rows = 12;
        let cols = 24;
        let orig: Vec<c64> = (0..rows * cols)
            .map(|i| c64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut work = orig.clone();
        fft2_in_place(&mut work, rows, cols, Direction::Forward).unwrap();
        fft2_in_place(&mut work, rows, cols, Direction::Inverse).unwrap();
        for (a, b) in orig.iter().zip(&work) {
            assert!(close(*a, *b, 1e-11));
        }
    }

    #[test]
    fn fft2_of_constant_is_dc_only() {
        let rows = 4;
        let cols = 8;
        let mut data = vec![c64::from_real(2.5); rows * cols];
        fft2_in_place(&mut data, rows, cols, Direction::Forward).unwrap();
        assert!(close(
            data[0],
            c64::from_real(2.5 * (rows * cols) as f64),
            1e-10
        ));
        for (i, z) in data.iter().enumerate().skip(1) {
            assert!(z.abs() < 1e-10, "bin {i}");
        }
    }

    #[test]
    fn fft3_roundtrip_and_convolution_theorem() {
        // A mixed power-of-two / Bluestein cube, and a 2/3/5-smooth one whose
        // plane axis mixes radices and whose lateral axes run radix 5. The
        // 20 × 20 planes are wider than one line batch, so the plane axis
        // also takes the gathered path.
        for (planes, rows, cols) in [(8, 6, 5), (15, 20, 20)] {
            let orig: Vec<c64> = (0..planes * rows * cols)
                .map(|i| c64::new((i as f64 * 0.29).sin(), (i as f64 * 0.17).cos()))
                .collect();
            let mut work = orig.clone();
            fft3_in_place(&mut work, planes, rows, cols, Direction::Forward).unwrap();
            fft3_in_place(&mut work, planes, rows, cols, Direction::Inverse).unwrap();
            for (a, b) in orig.iter().zip(&work) {
                assert!(close(*a, *b, 1e-11));
            }

            // Pointwise product in the spectral domain is circular
            // convolution: convolving with a shifted impulse must rotate the
            // cube.
            let mut kernel = vec![c64::zero(); planes * rows * cols];
            let (sp, sr, sc) = (3usize, 2usize, 4usize);
            kernel[(sp * rows + sr) * cols + sc] = c64::one();
            let mut khat = kernel;
            fft3_in_place(&mut khat, planes, rows, cols, Direction::Forward).unwrap();
            let mut xhat = orig.clone();
            fft3_in_place(&mut xhat, planes, rows, cols, Direction::Forward).unwrap();
            for (x, k) in xhat.iter_mut().zip(&khat) {
                *x *= *k;
            }
            fft3_in_place(&mut xhat, planes, rows, cols, Direction::Inverse).unwrap();
            for p in 0..planes {
                for r in 0..rows {
                    for c in 0..cols {
                        let src = ((p + planes - sp) % planes * rows + (r + rows - sr) % rows)
                            * cols
                            + (c + cols - sc) % cols;
                        let dst = (p * rows + r) * cols + c;
                        assert!(close(xhat[dst], orig[src], 1e-10), "{planes}x{rows}x{cols}");
                    }
                }
            }
        }
    }

    /// Cube shapes `(planes, rows, cols, live)` of the live-plane tests: the
    /// matrix-free shape (smooth plane count, 20 × 20 planes wider than one
    /// line batch), Bluestein lateral axes, `live == planes`, `live == 1`,
    /// and a single plane (a pure 2-D transform).
    const LIVE_SHAPES: [(usize, usize, usize, usize); 5] = [
        (30, 20, 20, 14),
        (9, 7, 6, 4),
        (8, 6, 5, 8),
        (8, 6, 5, 1),
        (1, 12, 24, 1),
    ];

    /// A pseudo-random cube whose planes from `live` on are zero.
    fn live_cube(planes: usize, rows: usize, cols: usize, live: usize) -> Vec<c64> {
        (0..planes * rows * cols)
            .map(|i| match i < live * rows * cols {
                true => c64::new((i as f64 * 0.29).sin(), (i as f64 * 0.17).cos()),
                false => c64::zero(),
            })
            .collect()
    }

    fn bits(z: &c64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn live_forward_has_the_bits_of_the_full_transform() {
        for (planes, rows, cols, live) in LIVE_SHAPES {
            let mut full = live_cube(planes, rows, cols, live);
            let mut pruned = full.clone();
            fft3_in_place(&mut full, planes, rows, cols, Direction::Forward).unwrap();
            fft3_in_place_live(&mut pruned, planes, rows, cols, live, Direction::Forward).unwrap();
            for (i, (a, b)) in full.iter().zip(&pruned).enumerate() {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "{planes}x{rows}x{cols} live {live}, bin {i}"
                );
            }
        }
    }

    #[test]
    fn live_inverse_matches_the_full_transform_on_the_live_planes() {
        for (planes, rows, cols, live) in LIVE_SHAPES {
            // A spectrum with every plane occupied, as the matvec's products.
            let spectrum = live_cube(planes, rows, cols, planes);
            let mut full = spectrum.clone();
            let mut pruned = spectrum;
            fft3_in_place(&mut full, planes, rows, cols, Direction::Inverse).unwrap();
            fft3_in_place_live(&mut pruned, planes, rows, cols, live, Direction::Inverse).unwrap();
            let head = live * rows * cols;
            let scale = full[..head].iter().map(|z| z.abs()).fold(0.0, f64::max);
            let worst = full[..head]
                .iter()
                .zip(&pruned)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= 1e-14 * scale,
                "{planes}x{rows}x{cols} live {live}: {worst:e} of {scale:e}"
            );

            // Forward then inverse returns the live planes.
            let orig = live_cube(planes, rows, cols, live);
            let mut work = orig.clone();
            fft3_in_place_live(&mut work, planes, rows, cols, live, Direction::Forward).unwrap();
            fft3_in_place_live(&mut work, planes, rows, cols, live, Direction::Inverse).unwrap();
            for (a, b) in orig[..head].iter().zip(&work) {
                assert!(close(*a, *b, 1e-12), "{planes}x{rows}x{cols} live {live}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn live_transform_rejects_a_mismatched_buffer() {
        let mut data = vec![c64::zero(); 4 * 3 * 3 - 1];
        let _ = fft3_in_place_live(&mut data, 4, 3, 3, 2, Direction::Forward);
    }

    #[test]
    fn fft_frequency_convention() {
        assert_eq!(fft_frequency(0, 8), 0.0);
        assert_eq!(fft_frequency(1, 8), 0.125);
        assert_eq!(fft_frequency(4, 8), 0.5);
        assert_eq!(fft_frequency(5, 8), -0.375);
        assert_eq!(fft_frequency(7, 8), -0.125);
    }

    #[test]
    fn length_one_and_zero_are_no_ops() {
        let mut empty: Vec<c64> = Vec::new();
        assert!(fft_in_place(&mut empty, Direction::Forward).is_ok());
        let mut one = vec![c64::new(3.0, -1.0)];
        assert!(fft_in_place(&mut one, Direction::Inverse).is_ok());
        assert_eq!(one[0], c64::new(3.0, -1.0));
    }
}
