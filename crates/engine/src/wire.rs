//! Bit-exact scenario serialization for worker processes and checkpoints.
//!
//! The [`crate::socket::SocketExecutor`] ships the scenario to worker
//! processes in its RUN frame, and checkpoints embed it so
//! [`crate::run::Run::resume`] can rebuild the plan from the file alone. Both consumers need the decoded
//! scenario to re-plan *bit-identically* — the same germ draws, the same KL
//! truncation, the same context keys — so every float is encoded as the hex of
//! its IEEE-754 bit pattern, never as decimal text.
//!
//! The format is a short line-oriented text block (one keyword per line,
//! space-separated tokens), deliberately free of external dependencies: the
//! workspace builds hermetically, without serde.

use crate::error::EngineError;
use crate::scenario::{EnsembleMode, Scenario};
use rough_core::{
    AssemblyScheme, MatrixFreePolicy, NearFieldPolicy, OperatorRepr, RoughnessSpec, SolverKind,
};
use rough_em::material::{Conductor, Dielectric, Stackup};
use rough_em::units::{Frequency, Meters, Resistivity};
use rough_surface::correlation::CorrelationFunction;
use rough_surface::RoughSurface;
use std::fmt::Write as _;

/// Magic first line of the wire format.
const MAGIC: &str = "roughsim-scenario-v1";

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_bits(token: &str) -> Result<f64, EngineError> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("malformed float bits `{token}`")))
}

fn parse_usize(token: &str) -> Result<usize, EngineError> {
    token
        .parse()
        .map_err(|_| bad(format!("malformed integer `{token}`")))
}

fn bad(reason: impl Into<String>) -> EngineError {
    EngineError::Checkpoint(format!("scenario wire: {}", reason.into()))
}

/// Percent-encodes a free-form string into one whitespace-free token (also
/// used by the checkpoint header and the service daemon's job journal to
/// embed free-form payloads in single-line JSON).
pub fn encode_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for byte in s.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(byte as char),
            other => {
                let _ = write!(out, "%{other:02x}");
            }
        }
    }
    out
}

/// Decodes an [`encode_token`] token back into the original string.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] on truncated or malformed `%`-escapes.
pub fn decode_token(s: &str) -> Result<String, EngineError> {
    let mut out = Vec::with_capacity(s.len());
    let mut chars = s.bytes();
    while let Some(byte) = chars.next() {
        if byte == b'%' {
            let hi = chars.next().ok_or_else(|| bad("truncated %-escape"))?;
            let lo = chars.next().ok_or_else(|| bad("truncated %-escape"))?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).map_err(|_| bad("non-ASCII %-escape"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| bad("malformed %-escape"))?);
        } else {
            out.push(byte);
        }
    }
    String::from_utf8(out).map_err(|_| bad("name is not valid UTF-8"))
}

/// Serializes a scenario into the wire text block.
pub fn encode_scenario(scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "name {}", encode_token(scenario.name()));
    let _ = writeln!(out, "seed {}", scenario.master_seed());
    let _ = writeln!(out, "cells {}", scenario.cells_per_side());
    let _ = writeln!(
        out,
        "kl {} {}",
        scenario.max_kl_modes,
        bits(scenario.energy_fraction)
    );
    let _ = writeln!(out, "surrogate {}", scenario.surrogate_samples);
    let _ = writeln!(
        out,
        "stack {} {}",
        bits(scenario.stack().conductor().resistivity().value()),
        bits(scenario.stack().dielectric().relative_permittivity())
    );
    match scenario.solver {
        SolverKind::DirectLu => {
            let _ = writeln!(out, "solver lu");
        }
        SolverKind::Bicgstab { tolerance } => {
            let _ = writeln!(out, "solver bicgstab {}", bits(tolerance));
        }
        SolverKind::Gmres { tolerance, restart } => {
            let _ = writeln!(out, "solver gmres {} {restart}", bits(tolerance));
        }
    }
    let AssemblyScheme::LocallyCorrected(policy) = scenario.assembly;
    let _ = writeln!(
        out,
        "assembly corrected {} {}",
        bits(policy.radius),
        policy.order
    );
    match scenario.operator_repr {
        // Dense is the default and is omitted, so blocks written before the
        // operator representation existed decode unchanged.
        OperatorRepr::Dense => {}
        OperatorRepr::MatrixFree(mf) => {
            let _ = writeln!(out, "operator matrixfree {} {}", mf.order, bits(mf.safety));
        }
    }
    match scenario.mode() {
        EnsembleMode::MonteCarlo { realizations } => {
            let _ = writeln!(out, "mode mc {realizations}");
        }
        EnsembleMode::Sscm { order } => {
            let _ = writeln!(out, "mode sscm {order}");
        }
        EnsembleMode::Deterministic => {
            let _ = writeln!(out, "mode det");
        }
    }
    let freqs: Vec<String> = scenario
        .frequencies()
        .iter()
        .map(|f| bits(f.value()))
        .collect();
    let _ = writeln!(out, "freqs {}", freqs.join(" "));
    for spec in scenario.roughness_grid() {
        let patch = bits(spec.patch_length());
        match spec.correlation() {
            Some(CorrelationFunction::Gaussian { sigma, eta }) => {
                let _ = writeln!(
                    out,
                    "rough gaussian {} {} {patch}",
                    bits(*sigma),
                    bits(*eta)
                );
            }
            Some(CorrelationFunction::Exponential { sigma, eta }) => {
                let _ = writeln!(
                    out,
                    "rough exponential {} {} {patch}",
                    bits(*sigma),
                    bits(*eta)
                );
            }
            Some(CorrelationFunction::Measured { sigma, eta1, eta2 }) => {
                let _ = writeln!(
                    out,
                    "rough measured {} {} {} {patch}",
                    bits(*sigma),
                    bits(*eta1),
                    bits(*eta2)
                );
            }
            None => {
                let _ = writeln!(out, "rough det {patch}");
            }
        }
    }
    if let Some(surface) = &scenario.surface {
        let heights: Vec<String> = surface.heights().iter().map(|&h| bits(h)).collect();
        let _ = writeln!(
            out,
            "surface {} {} {}",
            surface.samples_per_side(),
            bits(surface.patch_length()),
            heights.join(" ")
        );
    }
    let _ = writeln!(out, "end");
    out
}

/// Parses a wire text block back into a scenario.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] on malformed input and
/// [`EngineError::InvalidScenario`] when the decoded definition fails the
/// builder's validation.
pub fn decode_scenario(text: &str) -> Result<Scenario, EngineError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err(bad(format!("missing `{MAGIC}` header")));
    }

    let mut name = None;
    let mut seed = None;
    let mut cells = None;
    let mut kl = None;
    let mut surrogate = None;
    let mut stack = None;
    let mut solver = None;
    let mut assembly = None;
    let mut operator_repr = OperatorRepr::Dense;
    let mut mode = None;
    let mut freqs: Vec<Frequency> = Vec::new();
    let mut roughness: Vec<RoughnessSpec> = Vec::new();
    let mut surface = None;
    let mut saw_end = false;

    for line in lines {
        let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
        let (&keyword, args) = match tokens.split_first() {
            Some(split) => split,
            None => continue,
        };
        let arg = |index: usize| -> Result<&str, EngineError> {
            args.get(index)
                .copied()
                .ok_or_else(|| bad(format!("`{keyword}` line is missing field {index}")))
        };
        match keyword {
            "name" => name = Some(decode_token(arg(0)?)?),
            "seed" => seed = Some(arg(0)?.parse::<u64>().map_err(|_| bad("malformed seed"))?),
            "cells" => cells = Some(parse_usize(arg(0)?)?),
            "kl" => kl = Some((parse_usize(arg(0)?)?, parse_bits(arg(1)?)?)),
            "surrogate" => surrogate = Some(parse_usize(arg(0)?)?),
            "stack" => {
                stack = Some(Stackup::new(
                    Conductor::new(Resistivity::new(parse_bits(arg(0)?)?)),
                    Dielectric::new(parse_bits(arg(1)?)?),
                ))
            }
            "solver" => {
                solver = Some(match arg(0)? {
                    "lu" => SolverKind::DirectLu,
                    "bicgstab" => SolverKind::Bicgstab {
                        tolerance: parse_bits(arg(1)?)?,
                    },
                    "gmres" => SolverKind::Gmres {
                        tolerance: parse_bits(arg(1)?)?,
                        restart: parse_usize(arg(2)?)?,
                    },
                    other => return Err(bad(format!("unknown solver `{other}`"))),
                })
            }
            "assembly" => {
                assembly = Some(match arg(0)? {
                    "corrected" => AssemblyScheme::LocallyCorrected(NearFieldPolicy {
                        radius: parse_bits(arg(1)?)?,
                        order: parse_usize(arg(2)?)?,
                    }),
                    other => return Err(bad(format!("unknown assembly `{other}`"))),
                })
            }
            "operator" => {
                operator_repr = match arg(0)? {
                    "dense" => OperatorRepr::Dense,
                    "matrixfree" => OperatorRepr::MatrixFree(MatrixFreePolicy {
                        order: parse_usize(arg(1)?)?,
                        safety: parse_bits(arg(2)?)?,
                    }),
                    other => return Err(bad(format!("unknown operator `{other}`"))),
                }
            }
            "mode" => {
                mode = Some(match arg(0)? {
                    "mc" => EnsembleMode::MonteCarlo {
                        realizations: parse_usize(arg(1)?)?,
                    },
                    "sscm" => EnsembleMode::Sscm {
                        order: parse_usize(arg(1)?)?,
                    },
                    "det" => EnsembleMode::Deterministic,
                    other => return Err(bad(format!("unknown mode `{other}`"))),
                })
            }
            "freqs" => {
                for token in args {
                    freqs.push(Frequency::new(parse_bits(token)?));
                }
            }
            "rough" => {
                let patch = |index: usize| -> Result<f64, EngineError> { parse_bits(arg(index)?) };
                let spec =
                    match arg(0)? {
                        "gaussian" => RoughnessSpec::from_correlation(
                            CorrelationFunction::gaussian(patch(1)?, patch(2)?),
                        )
                        .with_patch_length(Meters::new(patch(3)?)),
                        "exponential" => RoughnessSpec::from_correlation(
                            CorrelationFunction::exponential(patch(1)?, patch(2)?),
                        )
                        .with_patch_length(Meters::new(patch(3)?)),
                        "measured" => RoughnessSpec::from_correlation(
                            CorrelationFunction::measured(patch(1)?, patch(2)?, patch(3)?),
                        )
                        .with_patch_length(Meters::new(patch(4)?)),
                        "det" => RoughnessSpec::deterministic(Meters::new(patch(1)?)),
                        other => return Err(bad(format!("unknown roughness kind `{other}`"))),
                    };
                roughness.push(spec);
            }
            "surface" => {
                let n = parse_usize(arg(0)?)?;
                let length = parse_bits(arg(1)?)?;
                let heights: Result<Vec<f64>, EngineError> =
                    args[2..].iter().map(|t| parse_bits(t)).collect();
                surface = Some(
                    RoughSurface::new(n, length, heights?)
                        .map_err(|e| bad(format!("invalid surface: {e:?}")))?,
                );
            }
            "end" => {
                saw_end = true;
                break;
            }
            other => return Err(bad(format!("unknown keyword `{other}`"))),
        }
    }
    if !saw_end {
        return Err(bad("truncated block (missing `end`)"));
    }

    let mut builder = Scenario::builder(stack.ok_or_else(|| bad("missing `stack`"))?)
        .name(name.ok_or_else(|| bad("missing `name`"))?)
        .roughness_grid(roughness)
        .frequencies(freqs)
        .cells_per_side(cells.ok_or_else(|| bad("missing `cells`"))?)
        .solver(solver.ok_or_else(|| bad("missing `solver`"))?)
        .assembly(assembly.ok_or_else(|| bad("missing `assembly`"))?)
        .operator_repr(operator_repr)
        .master_seed(seed.ok_or_else(|| bad("missing `seed`"))?)
        .surrogate_samples(surrogate.ok_or_else(|| bad("missing `surrogate`"))?);
    let (max_modes, energy_fraction) = kl.ok_or_else(|| bad("missing `kl`"))?;
    builder = builder
        .max_kl_modes(max_modes)
        .energy_fraction(energy_fraction);
    builder = match mode.ok_or_else(|| bad("missing `mode`"))? {
        EnsembleMode::MonteCarlo { realizations } => builder.monte_carlo(realizations),
        EnsembleMode::Sscm { order } => builder.sscm(order),
        EnsembleMode::Deterministic => {
            builder.deterministic(surface.ok_or_else(|| bad("deterministic mode without surface"))?)
        }
    };
    builder.build()
}

/// Exact identity of a scenario (used to guard resumes against mismatched
/// checkpoints). Floats fingerprint through their shortest-round-trip debug
/// text, so equal scenarios — and only equal scenarios — share a fingerprint.
pub fn scenario_fingerprint(scenario: &Scenario) -> u64 {
    crate::plan::debug_fingerprint(&encode_scenario(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_em::units::{GigaHertz, Micrometers};

    fn roundtrip(scenario: &Scenario) {
        let wire = encode_scenario(scenario);
        let decoded = decode_scenario(&wire).expect("decodes");
        // The wire text is the behavioural identity: every parameter the
        // planner and solver consume round-trips through it bit-exactly. (The
        // decoded `RoughnessSpec` stores its patch length explicitly instead
        // of as `factor × η`, so `Debug` text may differ while behaviour —
        // and hence the re-encoding — is identical.)
        assert_eq!(wire, encode_scenario(&decoded));
        assert_eq!(
            scenario_fingerprint(scenario),
            scenario_fingerprint(&decoded)
        );
        assert_eq!(scenario.name(), decoded.name());
        for (a, b) in scenario
            .roughness_grid()
            .iter()
            .zip(decoded.roughness_grid())
        {
            assert_eq!(a.patch_length().to_bits(), b.patch_length().to_bits());
            assert_eq!(a.correlation(), b.correlation());
        }
    }

    #[test]
    fn monte_carlo_scenarios_roundtrip() {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .name("wire test, with \"punctuation\" % and spaces")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(0.7),
            ))
            .roughness(RoughnessSpec::from_correlation(
                CorrelationFunction::paper_extracted(),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(7.5).into()])
            .cells_per_side(6)
            .max_kl_modes(5)
            .energy_fraction(0.93)
            .monte_carlo(11)
            .master_seed(0xDEAD_BEEF)
            .build()
            .unwrap();
        roundtrip(&scenario);
    }

    #[test]
    fn deterministic_scenarios_roundtrip_surface_bits() {
        let cells = 5;
        let tile = 12.0e-6;
        let surface = RoughSurface::from_fn(cells, tile, |x, y| {
            1e-7 * ((x * 1e6).sin() + (y * 1e6).cos())
        });
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
            .frequencies([GigaHertz::new(4.0).into()])
            .cells_per_side(cells)
            .solver(SolverKind::Gmres {
                tolerance: 1e-9,
                restart: 30,
            })
            .assembly(AssemblyScheme::LocallyCorrected(NearFieldPolicy::new(
                3.5, 6,
            )))
            .deterministic(surface)
            .build()
            .unwrap();
        roundtrip(&scenario);
    }

    fn default_scenario() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .monte_carlo(3)
            .build()
            .unwrap()
    }

    #[test]
    fn default_scenario_wire_text_and_fingerprint_are_pinned() {
        // Checkpoints, worker frames and daemon cache keys depend on these
        // exact bytes; a change here invalidates every stored result.
        let scenario = default_scenario();
        let expected = "roughsim-scenario-v1
name campaign
seed 8201
cells 8
kl 8 3fee666666666666
surrogate 20000
stack 3e51ee76071bbcc5 400d99999999999a
solver lu
assembly corrected 4004000000000000 4
mode mc 3
freqs 41f2a05f20000000
rough gaussian 3eb0c6f7a0b5ed8d 3eb0c6f7a0b5ed8d 3ed4f8b588e368f0
end
";
        assert_eq!(encode_scenario(&scenario), expected);
        assert_eq!(scenario_fingerprint(&scenario), 0x2b4b_38ad_6984_d745);
    }

    #[test]
    fn legacy_assembly_blocks_are_refused() {
        let wire = encode_scenario(&default_scenario())
            .replace("assembly corrected 4004000000000000 4", "assembly legacy");
        match decode_scenario(&wire) {
            Err(EngineError::Checkpoint(message)) => {
                assert!(message.contains("unknown assembly `legacy`"), "{message}")
            }
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    #[test]
    fn matrix_free_scenarios_roundtrip_and_default_is_omitted() {
        let build = |repr| {
            Scenario::builder(Stackup::paper_baseline())
                .roughness(RoughnessSpec::gaussian(
                    Micrometers::new(1.0),
                    Micrometers::new(1.0),
                ))
                .frequencies([GigaHertz::new(5.0).into()])
                .cells_per_side(8)
                .solver(SolverKind::Bicgstab { tolerance: 1e-11 })
                .operator_repr(repr)
                .monte_carlo(2)
                .build()
                .unwrap()
        };
        let mf = build(OperatorRepr::MatrixFree(MatrixFreePolicy {
            order: 12,
            safety: 0.625,
        }));
        roundtrip(&mf);
        let decoded = decode_scenario(&encode_scenario(&mf)).unwrap();
        assert_eq!(
            decoded.operator_repr(),
            OperatorRepr::MatrixFree(MatrixFreePolicy {
                order: 12,
                safety: 0.625,
            })
        );
        // Dense stays off the wire, so pre-operator blocks decode unchanged —
        // and the two representations never share a fingerprint.
        let dense = build(OperatorRepr::Dense);
        assert!(!encode_scenario(&dense).contains("operator"));
        roundtrip(&dense);
        assert_ne!(scenario_fingerprint(&mf), scenario_fingerprint(&dense));
    }

    #[test]
    fn mismatched_scenarios_have_distinct_fingerprints() {
        let base = |seed: u64| {
            Scenario::builder(Stackup::paper_baseline())
                .roughness(RoughnessSpec::gaussian(
                    Micrometers::new(1.0),
                    Micrometers::new(1.0),
                ))
                .frequencies([GigaHertz::new(5.0).into()])
                .monte_carlo(3)
                .master_seed(seed)
                .build()
                .unwrap()
        };
        assert_ne!(
            scenario_fingerprint(&base(1)),
            scenario_fingerprint(&base(2))
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_scenario("nonsense").is_err());
        assert!(decode_scenario(MAGIC).is_err()); // no `end`
        let truncated = format!("{MAGIC}\nname x\nend\n");
        assert!(decode_scenario(&truncated).is_err()); // missing fields
    }
}
