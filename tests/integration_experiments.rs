//! End-to-end experiment pipeline tests: every table/figure artifact of the
//! paper regenerates at reduced scale with the right structure and the
//! right qualitative shape.

use vrcache_sim::experiments::{
    access_time, coherence, hit_ratios, split_id, table5, tables_write, ExperimentCtx, LARGE_PAIRS,
};
use vrcache_trace::presets::TracePreset;

const SCALE: f64 = 0.008;

#[test]
fn tables_1_2_3_pipeline() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let t1 = tables_write::table1(&mut ctx);
    assert!(t1.to_string().contains("total no. of wr"));
    let t2 = tables_write::table2(&mut ctx);
    assert_eq!(t2.len(), 10);
    let t3 = tables_write::table3(&mut ctx);
    assert_eq!(t3.len(), 10);
}

#[test]
fn table5_shape() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let t = table5::table5(&mut ctx);
    assert_eq!(t.len(), 3);
    // Thor and pops are 4-cpu, abaqus 2-cpu — like the paper.
    assert_eq!(t.cell_by_header(0, "num. of cpus"), Some("4"));
    assert_eq!(t.cell_by_header(1, "num. of cpus"), Some("4"));
    assert_eq!(t.cell_by_header(2, "num. of cpus"), Some("2"));
}

#[test]
fn table6_and_figures_pipeline() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let (table, rows) = hit_ratios::table6(&mut ctx);
    assert_eq!(table.len(), 4, "h1VR/h1RR/h2VR/h2RR rows");
    assert_eq!(rows.len(), 3);

    // Figures derive from the same rows.
    for (preset, no) in [
        (TracePreset::Thor, 4),
        (TracePreset::Pops, 5),
        (TracePreset::Abaqus, 6),
    ] {
        let fig = access_time::figure(preset, &LARGE_PAIRS, &rows, 10.0, 20);
        assert_eq!(fig.curves.len(), 3);
        let rendered = access_time::render(&fig, no);
        assert_eq!(rendered.len(), 21);
        // Every curve's RR time is monotone in the slow-down.
        for (_, pts) in &fig.curves {
            for w in pts.windows(2) {
                assert!(w[1].t_rr >= w[0].t_rr);
            }
        }
    }
}

#[test]
fn abaqus_crossover_is_finite_and_modest() {
    // The headline qualitative claim of Figure 6: under frequent context
    // switches the V-R hierarchy catches up within a few percent of
    // physical-L1 slow-down.
    let mut ctx = ExperimentCtx::new(0.02);
    let (_, rows) = hit_ratios::table6(&mut ctx);
    let fig = access_time::figure(TracePreset::Abaqus, &LARGE_PAIRS, &rows, 10.0, 100);
    for (pair, x) in fig.crossovers() {
        let x = x.unwrap_or(f64::INFINITY);
        assert!(
            x <= 10.0,
            "abaqus {}: crossover {x}% not within the sweep",
            vrcache_sim::experiments::pair_label(pair)
        );
    }
    // And thor's crossover is at (or essentially at) zero.
    let fig = access_time::figure(TracePreset::Thor, &LARGE_PAIRS, &rows, 10.0, 100);
    for (_, x) in fig.crossovers() {
        assert!(x.unwrap_or(f64::INFINITY) <= 2.0, "thor must tie near 0%");
    }
}

#[test]
fn table7_small_caches_tie() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let (_, rows) = hit_ratios::table7(&mut ctx);
    for row in &rows {
        for cell in &row.cells {
            assert!(
                (cell.h1_vr - cell.h1_rr).abs() < 0.03,
                "{}: sub-page L1s must tie: vr {} rr {}",
                row.preset,
                cell.h1_vr,
                cell.h1_rr
            );
        }
    }
}

#[test]
fn tables_8_to_10_pipeline() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let tables = split_id::tables_8_9_10(&mut ctx);
    assert_eq!(tables.len(), 3);
    for t in &tables {
        assert_eq!(t.len(), 8);
    }
    assert!(tables[0].title().contains("thor"));
    assert!(tables[2].title().contains("abaqus"));
}

#[test]
fn tables_11_to_13_pipeline_and_shape() {
    let mut ctx = ExperimentCtx::new(SCALE);
    let presets = [TracePreset::Pops, TracePreset::Abaqus];
    let grid = coherence::coherence_grid(&mut ctx, &presets);
    for (preset, cells) in presets.into_iter().zip(grid) {
        let (vr, rr_incl, rr_no) = coherence::totals(&cells);
        assert!(
            vr < rr_no && rr_incl < rr_no,
            "{preset}: vr {vr} incl {rr_incl} no-incl {rr_no}"
        );
    }
}

/// The calibration must not hinge on seed luck: regenerating a preset with
/// different seeds moves h1 by well under a point.
#[test]
fn calibration_is_seed_robust() {
    use vrcache_sim::experiments::paper_config;
    use vrcache_sim::system::{HierarchyKind, System};
    use vrcache_trace::synth::generate;

    let base = vrcache_trace::presets::TracePreset::Pops
        .config()
        .scaled(0.02);
    let mut ratios = Vec::new();
    for seed in [base.seed, 0xAAAA, 0x5555] {
        let mut cfg = base.clone();
        cfg.seed = seed;
        let trace = generate(&cfg);
        let mut sys = System::new(
            HierarchyKind::Vr,
            trace.cpus(),
            &paper_config((8 * 1024, 128 * 1024)),
        );
        ratios.push(sys.run_trace(&trace).unwrap().h1);
    }
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(max - min < 0.01, "h1 across seeds spans {min:.4}..{max:.4}");
}

/// A trace that round-trips through the binary codec replays to identical
/// simulation results — the storage path changes nothing.
#[test]
fn codec_round_trip_preserves_simulation_results() {
    use vrcache_sim::experiments::paper_config;
    use vrcache_sim::system::{HierarchyKind, System};
    use vrcache_trace::codec::{decode, encode};

    let mut ctx = ExperimentCtx::new(0.005);
    let original = ctx.trace(TracePreset::Thor);
    let reloaded = decode(&encode(original)).unwrap();
    let cfg = paper_config((4 * 1024, 64 * 1024));
    let a = System::new(HierarchyKind::Vr, original.cpus(), &cfg)
        .run_trace(&original)
        .unwrap();
    let b = System::new(HierarchyKind::Vr, reloaded.cpus(), &cfg)
        .run_trace(&reloaded)
        .unwrap();
    assert_eq!(a, b);
}
