//! Shared infrastructure for the croxmap experiment harness.
//!
//! Each experiment table and figure of the paper has a binary in
//! `src/bin/` that regenerates it, named after it: `table1_networks`,
//! `table2_dimensions`, and `fig2_area_comparison` through `fig9_pgo` for
//! Figs. 2, 3 and 5–9. The binaries share the scaling logic here: by
//! default experiments run on scaled-down Table I analogs so the whole
//! suite finishes in minutes; `--full` switches to paper-scale networks
//! (hours of deterministic budget, as in the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace_check;

use croxmap_core::pipeline::PipelineConfig;
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarDim, CrossbarPool};
use croxmap_snn::Network;

/// Scale and budget of an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Divisor applied to Table I network sizes (1 = paper scale).
    pub scale: usize,
    /// Deterministic-second budget per optimisation run.
    pub budget: f64,
    /// Replication cap per dimension in heterogeneous pools.
    pub pool_cap: usize,
}

impl ExperimentScale {
    /// Default: 1/8-scale networks, 20 deterministic seconds per run.
    #[must_use]
    pub fn default_scale() -> Self {
        ExperimentScale {
            scale: 8,
            budget: 20.0,
            pool_cap: 8,
        }
    }

    /// Paper scale: full Table I networks. Budgets remain configurable;
    /// the paper used a 5-hour deterministic cap per network.
    #[must_use]
    pub fn full() -> Self {
        ExperimentScale {
            scale: 1,
            budget: 600.0,
            pool_cap: 4,
        }
    }

    /// Parses the process arguments with [`ExperimentScale::parse`]; on a
    /// bad argument, prints why and exits with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExperimentScale::parse(&args).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Parses `--full`, `--scale N`, `--budget X` and `--pool-cap N` from
    /// `args` (the program name excluded); other arguments are ignored.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is missing or does not
    /// parse, when `--scale` or `--pool-cap` is 0, or when `--budget` is
    /// not a positive finite number of deterministic seconds.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let mut scale = if args.iter().any(|a| a.as_ref() == "--full") {
            ExperimentScale::full()
        } else {
            ExperimentScale::default_scale()
        };
        let count = |flag, value| flag_value(flag, value, "a positive integer", |&v| v > 0);
        let seconds = |flag, value| {
            flag_value(flag, value, "a positive number", |&v: &f64| {
                v > 0.0 && v.is_finite()
            })
        };
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(flag) = it.next() {
            match flag {
                "--scale" => scale.scale = count(flag, it.next())?,
                "--pool-cap" => scale.pool_cap = count(flag, it.next())?,
                "--budget" => scale.budget = seconds(flag, it.next())?,
                _ => {}
            }
        }
        Ok(scale)
    }

    /// The five Table I analog networks at this scale, with names.
    #[must_use]
    pub fn networks(&self) -> Vec<(String, Network)> {
        let specs = if self.scale == 1 {
            NetworkSpec::table_i_all()
        } else {
            NetworkSpec::table_i_scaled(self.scale)
        };
        specs
            .into_iter()
            .map(|s| {
                let name = s.name.clone();
                (name, generate(&s))
            })
            .collect()
    }

    /// The pipeline configuration for one optimisation run.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::with_budget(self.budget)
    }

    /// Homogeneous pool: 16×16 crossbars, the paper's global choice (§V-C:
    /// the smallest power-of-two size fitting the most fan-in-intense
    /// network of Table I). Replicas carry 2× slack over the pure output
    /// bound because input capacity — not output capacity — is what binds
    /// on sparse networks.
    #[must_use]
    pub fn homogeneous_pool(&self, network: &Network) -> CrossbarPool {
        let dim = CrossbarDim::square(16);
        let n = network.node_count();
        let replicas = (n.div_ceil(dim.outputs() as usize) * 2).max(2);
        CrossbarPool::from_counts(&AreaModel::memristor_count(), [(dim, replicas)])
    }

    /// Heterogeneous pool from the Table II catalog.
    #[must_use]
    pub fn heterogeneous_pool(&self, network: &Network) -> CrossbarPool {
        let arch = ArchitectureSpec::table_ii_heterogeneous();
        CrossbarPool::for_network_capped(
            &arch,
            &AreaModel::memristor_count(),
            network.node_count(),
            self.pool_cap,
        )
    }
}

/// Prints a horizontal rule and a section title.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Formats a percentage improvement `old → new` (positive = better).
#[must_use]
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old.abs() < croxmap_ilp::tol::ZERO {
        0.0
    } else {
        100.0 * (old - new) / old
    }
}

/// The value after `flag`, which must parse and pass `valid`, or a message
/// naming the flag and the `expected` value.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<&str>,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs {expected}"))?;
    raw.parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("{flag} must be {expected}, got {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_networks_generate() {
        let s = ExperimentScale::default_scale();
        let nets = s.networks();
        assert_eq!(nets.len(), 5);
        for (_, n) in &nets {
            assert!(n.node_count() >= 8);
        }
    }

    #[test]
    fn homogeneous_pool_admits_max_fan_in() {
        let s = ExperimentScale::default_scale();
        for (_, net) in s.networks() {
            let pool = s.homogeneous_pool(&net);
            let fan_in = net.stats().max_fan_in;
            assert!(pool.slots()[0].dim.admits_fan_in(fan_in));
            // Output slack: strictly more capacity than neurons.
            assert!(pool.total_outputs() > net.node_count());
        }
    }

    #[test]
    fn arguments_parse() {
        let s = ExperimentScale::parse(&["--scale", "16", "--budget", "0.5", "--pool-cap", "2"])
            .expect("valid arguments");
        assert_eq!((s.scale, s.budget, s.pool_cap), (16, 0.5, 2));
        let s = ExperimentScale::parse(&["--full", "--budget", "3", "--other"]).expect("valid");
        assert_eq!((s.scale, s.budget, s.pool_cap), (1, 3.0, 4));
        let none: [&str; 0] = [];
        let s = ExperimentScale::parse(&none).expect("defaults");
        assert_eq!((s.scale, s.budget, s.pool_cap), (8, 20.0, 8));
    }

    #[test]
    fn bad_arguments_name_their_flag() {
        for (args, flag) in [
            (&["--scale", "abc"][..], "--scale"),
            (&["--scale", "0"], "--scale"),
            (&["--scale", "-3"], "--scale"),
            (&["--budget", "1", "--scale"], "--scale"),
            (&["--pool-cap", "0"], "--pool-cap"),
            (&["--pool-cap", "two"], "--pool-cap"),
            (&["--budget", "0"], "--budget"),
            (&["--budget", "-1"], "--budget"),
            (&["--budget", "inf"], "--budget"),
            (&["--budget", "NaN"], "--budget"),
            (&["--budget"], "--budget"),
        ] {
            let err = ExperimentScale::parse(args).expect_err("rejected");
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(200.0, 100.0), 50.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }
}
