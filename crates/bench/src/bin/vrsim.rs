//! `vrsim` — command-line front end for the vrcache simulator.
//!
//! ```text
//! vrsim gen --preset pops --scale 0.1 --out pops.vrt
//!     Generate a trace and store it in the binary trace format.
//!
//! vrsim run [--trace-file f.vrt | --preset pops --scale 0.05]
//!           [--kind vr|rr|rr-noincl|goodman] [--l1 16384] [--l2 262144]
//!           [--block 16] [--split] [--write-through] [--eager-flush]
//!           [--asid-tags] [--update-protocol] [--drain N]
//!     Replay a trace on a system and print hit ratios, bus traffic and
//!     per-CPU events. A configuration the chosen organization does not
//!     model is rejected with an error before any trace is loaded.
//!
//! vrsim inspect [--trace-file f.vrt | --preset pops --scale 0.05]
//!     Print trace characteristics and locality curves.
//!
//! vrsim layout [--l1 16384] [--l2 262144] [--block 16] [--block2 32]
//!     Print the Figure-3 tag layout and the inclusion bound.
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use vrcache::config::HierarchyConfig;
use vrcache::inclusion::{min_l2_assoc_for_inclusion, satisfies_inclusion_bound};
use vrcache::layout::TagLayout;
use vrcache_cache::geometry::CacheGeometry;
use vrcache_mem::access::CpuId;
use vrcache_mem::page::PageSize;
use vrcache_sim::experiments::parse_scale;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::analysis::{reuse_histogram, working_set_curve};
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::trace::Trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vrsim gen --preset <pops|thor|abaqus> [--scale S] --out <file>\n  \
         vrsim run [--trace-file F | --preset P --scale S] [--kind vr|rr|rr-noincl|goodman]\n            \
         [--l1 BYTES] [--l2 BYTES] [--block BYTES] [--split] [--write-through]\n            \
         [--eager-flush] [--asid-tags] [--update-protocol] [--drain N]\n  \
         vrsim inspect [--trace-file F | --preset P --scale S]\n  \
         vrsim layout [--l1 BYTES] [--l2 BYTES] [--block BYTES] [--block2 BYTES]"
    );
    ExitCode::FAILURE
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument: {arg}"));
        };
        // Boolean flags take no value.
        if matches!(
            name,
            "split" | "write-through" | "eager-flush" | "asid-tags" | "update-protocol"
        ) {
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("--{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn preset_of(name: &str) -> Option<TracePreset> {
    match name {
        "pops" => Some(TracePreset::Pops),
        "thor" => Some(TracePreset::Thor),
        "abaqus" => Some(TracePreset::Abaqus),
        _ => None,
    }
}

fn load_trace(flags: &HashMap<String, String>) -> Result<Trace, String> {
    if let Some(path) = flags.get("trace-file") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        return codec::decode(&bytes).map_err(|e| format!("decoding {path}: {e}"));
    }
    let preset = flags.get("preset").map(String::as_str).unwrap_or("pops");
    let preset = preset_of(preset).ok_or_else(|| format!("unknown preset: {preset}"))?;
    let scale = flags
        .get("scale")
        .map(|s| parse_scale(s).map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0.05);
    eprintln!("[vrsim] generating {preset} at scale {scale} ...");
    Ok(preset.generate_scaled(scale))
}

/// The numeric flag `--k`, or `default` when it is absent.
fn number(flags: &HashMap<String, String>, k: &str, default: u64) -> Result<u64, String> {
    flags
        .get(k)
        .map(|s| s.parse().map_err(|_| format!("bad --{k}: {s}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

fn config_of(flags: &HashMap<String, String>) -> Result<HierarchyConfig, String> {
    let l1 = number(flags, "l1", 16 * 1024)?;
    let l2 = number(flags, "l2", 256 * 1024)?;
    let block = number(flags, "block", 16)?;
    let mut cfg = HierarchyConfig::direct_mapped(l1, l2, block)
        .map_err(|e| format!("invalid geometry: {e}"))?;
    if flags.contains_key("split") {
        cfg = cfg.with_split_l1();
    }
    if flags.contains_key("write-through") {
        cfg = cfg.with_write_through();
    }
    if flags.contains_key("eager-flush") {
        cfg = cfg.with_eager_flush();
    }
    if flags.contains_key("asid-tags") {
        cfg = cfg.with_asid_tags();
    }
    if flags.contains_key("update-protocol") {
        cfg = cfg.with_update_protocol();
    }
    if let Some(d) = flags.get("drain") {
        let period: u64 = d.parse().map_err(|_| format!("bad --drain: {d}"))?;
        cfg = cfg.with_drain_period(period);
    }
    Ok(cfg)
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let out = flags.get("out").ok_or("gen needs --out <file>")?;
    let bytes = codec::encode(&trace);
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} ({} events, {} bytes)",
        out,
        trace.len(),
        bytes.len()
    );
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let cfg = config_of(flags)?;
    let kind = match flags.get("kind").map(String::as_str).unwrap_or("vr") {
        "vr" => HierarchyKind::Vr,
        "rr" => HierarchyKind::RrInclusive,
        "rr-noincl" => HierarchyKind::RrNonInclusive,
        "goodman" => HierarchyKind::GoodmanSingleLevel,
        k => return Err(format!("unknown kind: {k}")),
    };
    kind.supports(&cfg).map_err(|e| e.to_string())?;
    let trace = load_trace(flags)?;
    let mut sys = System::new(kind, trace.cpus(), &cfg);
    let run = sys
        .run_trace(&trace)
        .map_err(|e| format!("simulation failed: {e}"))?;
    sys.check_invariants()
        .map_err(|e| format!("invariants failed: {e}"))?;

    println!("trace: {}", trace.summary());
    println!("organization: {kind}, L1 {} / L2 {}", cfg.l1, cfg.l2);
    println!("h1 = {:.4}   h2(local) = {:.4}", run.h1, run.h2_local);
    println!("{}", run.bus);
    for c in 0..trace.cpus() {
        println!("cpu{c}: {}", sys.events(CpuId::new(c)));
    }
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(flags)?;
    println!("{}\n", trace.summary());
    let ws = working_set_curve(&trace, CpuId::new(0), 16, &[100, 1_000, 10_000]);
    println!("working-set curve (cpu0, 16B blocks):\n{ws}");
    let reuse = reuse_histogram(&trace, CpuId::new(0), 16);
    println!("reuse distances (cpu0, 16B blocks):\n{reuse}");
    println!(
        "\nfully-associative LRU miss ratios: 256 blocks {:.3}, 1024 blocks {:.3}",
        reuse.lru_miss_ratio(256),
        reuse.lru_miss_ratio(1024),
    );
    Ok(())
}

fn cmd_layout(flags: &HashMap<String, String>) -> Result<(), String> {
    let block = number(flags, "block", 16)?;
    let l1 = CacheGeometry::direct_mapped(number(flags, "l1", 16 * 1024)?, block)
        .map_err(|e| e.to_string())?;
    let l2 = CacheGeometry::direct_mapped(
        number(flags, "l2", 256 * 1024)?,
        number(flags, "block2", block)?,
    )
    .map_err(|e| e.to_string())?;
    let page = PageSize::SIZE_4K;
    let t = TagLayout::compute(32, page, &l1, &l2);
    println!("{t}");
    println!(
        "strict-inclusion bound: A2 >= {} ({}satisfied by direct-mapped L2)",
        min_l2_assoc_for_inclusion(&l1, &l2, page),
        if satisfies_inclusion_bound(&l1, &l2, page) {
            ""
        } else {
            "NOT "
        },
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "run" => cmd_run(&flags),
        "inspect" => cmd_inspect(&flags),
        "layout" => cmd_layout(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
