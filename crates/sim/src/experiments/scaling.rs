//! Shielding vs processor count — the paper's stated future work.
//!
//! Section 4 closes the coherence study with: *"We believe that the
//! shielding effect on cache coherence will be more prominent as the
//! number of processors increases ... We plan to further confirm this
//! observation when we are in possession of larger-scale traces."* The
//! paper only had 2- and 4-CPU traces; the synthetic generator has no such
//! limit, so this experiment runs the confirmation the authors could not:
//! the same per-CPU workload at 2, 4, 8 and 16 processors, comparing the
//! coherence messages that reach a first-level cache under the V-R
//! organization and the no-inclusion baseline.

use vrcache_trace::synth::{generate, WorkloadConfig};

use super::{paper_config, ExperimentCtx};
use crate::report::TableReport;
use crate::system::HierarchyKind;

/// One measured point of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of processors.
    pub cpus: u16,
    /// Average L1 coherence messages per CPU, V-R organization.
    pub vr_msgs_per_cpu: f64,
    /// Average L1 coherence messages per CPU, R-R without inclusion.
    pub no_incl_msgs_per_cpu: f64,
}

impl ScalingPoint {
    /// The shielding factor: how many times fewer messages the V-R first
    /// level sees.
    pub fn shielding_factor(&self) -> f64 {
        if self.vr_msgs_per_cpu == 0.0 {
            f64::INFINITY
        } else {
            self.no_incl_msgs_per_cpu / self.vr_msgs_per_cpu
        }
    }
}

/// Runs the scaling study: `refs_per_cpu` references per processor at each
/// CPU count, identical per-CPU workload parameters, 8K/128K hierarchies.
///
/// The simulations run one at a time on the caller's thread, counted on
/// `ctx`: the 16-CPU point's trace and system are the largest live
/// allocation of a whole reproduction, and running its two
/// organizations at once would raise the process's memory peak.
pub fn scaling_study(
    ctx: &mut ExperimentCtx,
    refs_per_cpu: u64,
    cpu_counts: &[u16],
) -> Vec<ScalingPoint> {
    cpu_counts
        .iter()
        .map(|cpus| {
            let trace = generate(&WorkloadConfig {
                name: format!("scale-{cpus}"),
                cpus: *cpus,
                total_refs: refs_per_cpu * u64::from(*cpus),
                context_switches: 0,
                p_shared: 0.05,
                shared_pages: 24,
                seed: 0x5CA1E,
                ..WorkloadConfig::default()
            });
            let cfg = paper_config((8 * 1024, 128 * 1024));
            let mut per_cpu = |kind: HierarchyKind| -> f64 {
                let run = ctx.run_one(&trace, &cfg, kind);
                let total: u64 = run.events.iter().map(|e| e.l1_coherence_messages()).sum();
                total as f64 / f64::from(*cpus)
            };
            ScalingPoint {
                cpus: *cpus,
                vr_msgs_per_cpu: per_cpu(HierarchyKind::Vr),
                no_incl_msgs_per_cpu: per_cpu(HierarchyKind::RrNonInclusive),
            }
        })
        .collect()
}

/// Renders the scaling study.
pub fn render(points: &[ScalingPoint]) -> TableReport {
    let mut t = TableReport::new(
        "Scaling study (paper's future work): shielding vs processor count (8K/128K)",
        vec![
            "cpus",
            "VR msgs / cpu",
            "RR(no incl) msgs / cpu",
            "shielding factor",
        ],
    );
    for p in points {
        t.row(vec![
            p.cpus.to_string(),
            format!("{:.0}", p.vr_msgs_per_cpu),
            format!("{:.0}", p.no_incl_msgs_per_cpu),
            format!("{:.1}x", p.shielding_factor()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shielding_grows_with_cpus() {
        let mut ctx = ExperimentCtx::new(1.0);
        let points = scaling_study(&mut ctx, 15_000, &[2, 4, 8]);
        assert_eq!(points.len(), 3);
        assert_eq!(ctx.work().cells, 6, "two organizations per point");
        for p in &points {
            assert!(
                p.shielding_factor() > 1.0,
                "{} cpus: factor {}",
                p.cpus,
                p.shielding_factor()
            );
        }
        // The paper's conjecture: more processors, more shielding benefit.
        assert!(
            points[2].shielding_factor() > points[0].shielding_factor(),
            "2 cpus {:.1}x vs 8 cpus {:.1}x",
            points[0].shielding_factor(),
            points[2].shielding_factor()
        );
    }

    #[test]
    fn render_layout() {
        let t = render(&[ScalingPoint {
            cpus: 4,
            vr_msgs_per_cpu: 100.0,
            no_incl_msgs_per_cpu: 600.0,
        }]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.cell(0, 3), Some("6.0x"));
    }
}
