//! The synthesis/simulation flow: Figure 10 of the paper.

use std::convert::Infallible;
use std::sync::Arc;

use bdc_cells::{CellKind, CellLibrary};
use bdc_exec::{cached, fnv1a, MemoTable};
use bdc_synth::blocks;
use bdc_synth::gate::Netlist;
use bdc_synth::map::{prefers_decomposition, remap_for_library};
use bdc_synth::pipeline::{pipeline_cut, PipelineOptions, PipelineResult};
use bdc_synth::sta::analyze;
use bdc_uarch::{build_workload, OooCore, SimStats, Workload};

use bdc_lint::{lint_netlist, LintReport, Severity};

use crate::corespec::{stage_netlist, CoreSpec, StageKind};
use crate::process::TechKit;

/// Runs the gate-level static-analysis pass over a mapped netlist and
/// prints a one-line stderr summary when any rule fires; the flow goes on
/// either way. Returns the report so callers can surface diagnostics.
pub fn lint_gate(kit: &TechKit, netlist: &Netlist) -> LintReport {
    let report = lint_netlist(netlist, &kit.lib, &kit.sta);
    if report.max_severity() >= Some(Severity::Warning) {
        eprintln!("bdc-lint: {}", report.summary());
    }
    report
}

/// The complex-ALU block of the paper's first experiment (§5.2): two
/// pipelined multipliers and two dividers. The DesignWare dividers are
/// *stallable* (multi-cycle sequential) units, so only their per-cycle
/// conditional-subtract row participates in retiming; the multiplier arrays
/// carry the deep combinational path that pipeline cutting subdivides.
pub fn alu_cluster() -> Netlist {
    let mut n = Netlist::new("complex_alu");
    n.append(&blocks::array_multiplier(32), "mul0");
    n.append(&blocks::array_multiplier(32), "mul1");
    n.append(&blocks::divider_stage(32), "div0");
    n.append(&blocks::divider_stage(32), "div1");
    n
}

/// Pipelines a combinational block to `stages` against a kit's library,
/// remapping it for the library first.
pub fn pipeline_alu(kit: &TechKit, block: &Netlist, stages: usize) -> PipelineResult {
    let (mapped, mapped_fp) = mapped_for(block, block.fingerprint(), &kit.lib);
    lint_gate_once(kit, mapped_fp, &mapped);
    let opts = PipelineOptions { stages, ..kit.pipe };
    (*pipeline_cut_memoed(&mapped, mapped_fp, &kit.lib, &kit.sta, &opts)).clone()
}

/// A memoized netlist paired with its structural fingerprint.
type FpNet = (Arc<Netlist>, u64);

/// In-process memo of a generated stage netlist: [`stage_netlist`] is a
/// pure function of its recipe, so each distinct (stage, width, pipes)
/// combination is generated once per process lifetime. Returns the netlist
/// and its structural fingerprint.
fn stage_block(kind: StageKind, fe_width: usize, be_pipes: usize) -> FpNet {
    static BLOCKS: MemoTable<(u8, usize, usize), FpNet> = MemoTable::new();
    BLOCKS.get_or_init((kind as u8, fe_width, be_pipes), || {
        let net = stage_netlist(kind, fe_width, be_pipes);
        let fp = net.fingerprint();
        (Arc::new(net), fp)
    })
}

/// In-process memo of a block's library-mapped form. The mapper depends on
/// the library only through its two decomposition decisions
/// ([`prefers_decomposition`] for NAND3 and NOR3), so the mapped structure
/// is keyed by the input netlist's structural fingerprint plus both
/// decisions — across a parameter sweep the decisions rarely flip, and the
/// remap is paid once per process lifetime instead of once per call.
/// Returns the mapped netlist and its structural fingerprint.
fn mapped_for(block: &Netlist, block_fp: u64, lib: &CellLibrary) -> FpNet {
    static MAPPED: MemoTable<(u64, bool, bool), FpNet> = MemoTable::new();
    let drop_nand3 = prefers_decomposition(lib, CellKind::Nand3);
    let drop_nor3 = prefers_decomposition(lib, CellKind::Nor3);
    MAPPED.get_or_init((block_fp, drop_nand3, drop_nor3), || {
        let (mapped, _) = remap_for_library(block, lib);
        let fp = mapped.fingerprint();
        (Arc::new(mapped), fp)
    })
}

/// In-process memo of [`analyze`] over a mapped netlist: STA is a pure
/// function of (netlist, library, config), so specs that share a stage's
/// mapped form — a depth sweep reuses every stage netlist, a width grid
/// reuses the width-independent stages — time it once per library instead
/// of once per spec. Keyed by both structural fingerprints plus the
/// config's `Debug` form.
fn analyze_memoed(
    mapped: &Netlist,
    mapped_fp: u64,
    lib: &CellLibrary,
    sta: &bdc_synth::sta::StaConfig,
) -> Arc<bdc_synth::sta::StaReport> {
    static REPORTS: MemoTable<(u64, u64, u64), Arc<bdc_synth::sta::StaReport>> = MemoTable::new();
    let key = (mapped_fp, lib.fingerprint(), fnv1a(&[&format!("{sta:?}")]));
    REPORTS.get_or_init(key, || Arc::new(analyze(mapped, lib, sta)))
}

/// In-process memo of [`pipeline_cut`], the retiming companion to
/// [`analyze_memoed`]: keyed by the mapped netlist's fingerprint, the
/// library's fingerprint, and the `Debug` form of both the STA config and
/// the cut options (which carry the stage count).
fn pipeline_cut_memoed(
    mapped: &Netlist,
    mapped_fp: u64,
    lib: &CellLibrary,
    sta: &bdc_synth::sta::StaConfig,
    opts: &PipelineOptions,
) -> Arc<PipelineResult> {
    static CUTS: MemoTable<(u64, u64, u64), Arc<PipelineResult>> = MemoTable::new();
    let key = (
        mapped_fp,
        lib.fingerprint(),
        fnv1a(&[&format!("{sta:?}"), &format!("{opts:?}")]),
    );
    CUTS.get_or_init(key, || Arc::new(pipeline_cut(mapped, lib, sta, opts)))
}

/// Runs [`lint_gate`] once per distinct (mapped netlist, library content)
/// pair. The lint verdict is a pure function of both, so a repeat run
/// could only re-emit the same diagnostics; any change to the library
/// re-runs the pass.
fn lint_gate_once(kit: &TechKit, mapped_fp: u64, mapped: &Netlist) {
    static LINTED: MemoTable<(u64, u64), ()> = MemoTable::new();
    let key = (mapped_fp, kit.lib.fingerprint());
    LINTED.get_or_init(key, || {
        lint_gate(kit, mapped);
    });
}

/// Per-stage synthesis summary.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Which logical stage.
    pub kind: StageKind,
    /// Sub-stages after splitting.
    pub substages: usize,
    /// Worst per-substage logic delay (s).
    pub logic_delay: f64,
    /// Cell area of the stage (µm²), including retiming registers.
    pub area_um2: f64,
}

/// Result of synthesizing a whole core.
#[derive(Debug, Clone)]
pub struct SynthesizedCore {
    /// Minimum clock period (s).
    pub period: f64,
    /// Clock frequency (Hz).
    pub frequency: f64,
    /// Total area (µm²), including pipeline interface registers.
    pub area_um2: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageTiming>,
    /// The stage whose logic limits the clock.
    pub critical: StageKind,
    /// Sequential overhead charged per cycle (s).
    pub seq_overhead: f64,
    /// Feedback/control wire overhead charged per cycle (s).
    pub wire_overhead: f64,
}

/// Synthesizes a core design point: every stage's representative netlist is
/// mapped, timed (and internally pipelined where split), and the core's
/// clock is set by the worst stage plus sequential and feedback-wire
/// overheads. Feedback nets (stalls, flush, bypass broadcast) span more of
/// the die as the pipeline deepens and the back end widens.
pub fn synthesize_core(kit: &TechKit, spec: &CoreSpec) -> SynthesizedCore {
    let mut stages = Vec::new();
    let mut area = 0.0;
    let mut instances = 0usize;
    for kind in StageKind::all() {
        let (net, net_fp) = stage_block(kind, spec.fe_width, spec.be_pipes);
        let (mapped, mapped_fp) = mapped_for(&net, net_fp, &kit.lib);
        lint_gate_once(kit, mapped_fp, &mapped);
        let k = spec.substages(kind);
        let (logic, stage_area) = if k == 1 {
            let r = analyze_memoed(&mapped, mapped_fp, &kit.lib, &kit.sta);
            (r.max_arrival, r.area_um2)
        } else {
            let opts = PipelineOptions {
                stages: k,
                ..kit.pipe
            };
            let r = pipeline_cut_memoed(&mapped, mapped_fp, &kit.lib, &kit.sta, &opts);
            let worst = r.stage_logic.iter().copied().fold(0.0, f64::max);
            // The stage's boundary registers are accounted once, globally,
            // as interface registers below — keep only internal retiming
            // ranks here.
            let io_regs = (mapped.inputs().len() + mapped.outputs().len()) as f64
                * kit.lib.cell(CellKind::Dff).area;
            (worst, (r.area_um2 - io_regs).max(0.0))
        };
        instances += mapped.gates().len();
        area += stage_area;
        stages.push(StageTiming {
            kind,
            substages: k,
            logic_delay: logic,
            area_um2: stage_area,
        });
    }

    // Inter-stage interface registers: each boundary latches the in-flight
    // instruction group (payload scales with width).
    let iface_bits = 60 + 48 * spec.fe_width.max(spec.be_pipes - 2);
    let boundaries = spec.total_stages();
    let dff_area = kit.lib.cell(CellKind::Dff).area;
    area += (iface_bits * boundaries) as f64 * dff_area;
    instances += iface_bits * boundaries;

    // Memory arrays (not gate-synthesized but real area and wire span):
    // L1 caches, predictor tables, physical register file, IQ/ROB/LSQ
    // payload. Silicon uses 6T SRAM bit cells; the organic process has no
    // dense SRAM and stores bits in compact latches.
    let bit_area = kit.process.tech().bit_area(&kit.lib);
    let cache_bits = 2.0 * 8.0 * 1024.0 * 8.0 * 1.1; // two 8 KiB L1s + tags
    let pred_bits = (512 * 52 + 4096 * 2) as f64; // BTB + PHT
    let regfile_bits = 64.0 * 32.0 * (1.0 + 0.25 * (spec.be_pipes as f64 - 3.0));
    let window_bits = (32.0 + 64.0 + 16.0) * 80.0 * (1.0 + 0.15 * (spec.fe_width as f64 - 1.0));
    let array_bits = cache_bits + pred_bits + regfile_bits + window_bits;
    // Arrays enter the floorplan (wire spans) but not the reported cell
    // area: like the paper, Figure 11(a)/14 report synthesized cell area.
    let floorplan_area = area + array_bits * bit_area;
    let floorplan_instances = instances + (array_bits / 8.0) as usize;

    let placement = kit
        .sta
        .placement
        .place_area(floorplan_area, floorplan_instances);
    let seq_overhead = kit.lib.dff.setup + kit.lib.dff.clk_to_q * (1.0 + kit.pipe.skew_fraction);
    let span = kit.pipe.feedback_base
        + kit.pipe.feedback_per_stage * spec.total_stages() as f64
        + 0.55 * (spec.be_pipes as f64 - 3.0)
        + 0.50 * (spec.fe_width as f64 - 1.0);
    let fb_len = kit.sta.placement.crossing_length(&placement, span);
    let wire_overhead = kit
        .lib
        .wire
        .delay(fb_len, kit.lib.drive_resistance() / kit.pipe.driver_upsize);

    let (critical, worst_logic) =
        stages
            .iter()
            .map(|s| (s.kind, s.logic_delay))
            .fold(
                (StageKind::Fetch, 0.0),
                |acc, x| if x.1 > acc.1 { x } else { acc },
            );
    let period = worst_logic + seq_overhead + wire_overhead;
    SynthesizedCore {
        period,
        frequency: 1.0 / period,
        area_um2: area,
        stages,
        critical,
        seq_overhead,
        wire_overhead,
    }
}

/// Memoizing wrapper around [`synthesize_core`] through [`cached`], the
/// workspace's one artifact-store path. The key hashes a schema salt, the
/// process, the characterized library's semantic fingerprint
/// ([`CellLibrary::fingerprint`] — so recharacterizing with a new grid,
/// new rails, or a different wire model invalidates every dependent
/// synthesis result), the [`CoreSpec`], and every synthesis setting
/// ([`StaConfig`](bdc_synth::sta::StaConfig) and [`PipelineOptions`] in
/// `Debug` form). The stored artifact round-trips every `f64` through its
/// bit pattern, so a cache hit is bit-identical to the synthesis it
/// replaced. Concurrent misses on one key are single-flighted: one worker
/// synthesizes, the rest wait and load.
pub fn synthesize_core_cached(kit: &TechKit, spec: &CoreSpec) -> SynthesizedCore {
    let key = fnv1a(&[
        "bdc-synth-v2",
        kit.process.name(),
        &format!("{:016x}", kit.lib.fingerprint()),
        &format!("{spec:?}"),
        &format!("{:?}", kit.sta),
        &format!("{:?}", kit.pipe),
    ]);
    let name = format!("synth-{}", kit.process.name());
    let Ok(core) = cached(&name, key, parse_synth_text, write_synth_text, || {
        Ok::<_, Infallible>(synthesize_core(kit, spec))
    });
    core
}

/// Memoizing wrapper around [`pipeline_alu`] through [`cached`], the
/// workspace's one artifact-store path. The key hashes a schema salt, the
/// process, the library's semantic fingerprint (like
/// [`synthesize_core_cached`] — recharacterization invalidates every
/// dependent cut), a structural fingerprint of the input block, the stage
/// count, and every synthesis setting. Every float round-trips through
/// its bit pattern, so a hit is bit-identical to the cut it replaced.
/// Concurrent misses on one key are single-flighted.
pub fn pipeline_alu_cached(kit: &TechKit, block: &Netlist, stages: usize) -> PipelineResult {
    let key = fnv1a(&[
        "bdc-alu-v2",
        kit.process.name(),
        &format!("{:016x}", kit.lib.fingerprint()),
        &format!("{:016x}", block.fingerprint()),
        &stages.to_string(),
        &format!("{:?}", kit.sta),
        &format!("{:?}", kit.pipe),
    ]);
    let name = format!("alu-{}", kit.process.name());
    let Ok(r) = cached(&name, key, parse_pipeline_text, write_pipeline_text, || {
        Ok::<_, Infallible>(pipeline_alu(kit, block, stages))
    });
    r
}

/// Serializes a pipeline cut for the artifact cache (bit-exact floats).
fn write_pipeline_text(r: &PipelineResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("pipecut v1\n");
    let _ = writeln!(s, "stages {}", r.stages);
    let _ = writeln!(s, "period {:016x}", r.period.to_bits());
    let _ = writeln!(s, "frequency {:016x}", r.frequency.to_bits());
    let _ = writeln!(s, "area_um2 {:016x}", r.area_um2.to_bits());
    let _ = writeln!(s, "registers {}", r.registers);
    let _ = writeln!(s, "seq_overhead {:016x}", r.seq_overhead.to_bits());
    let _ = writeln!(s, "wire_overhead {:016x}", r.wire_overhead.to_bits());
    for d in &r.stage_logic {
        let _ = writeln!(s, "logic {:016x}", d.to_bits());
    }
    s
}

/// Inverse of [`write_pipeline_text`]; `None` on any malformed line,
/// which the cache treats as a miss.
fn parse_pipeline_text(text: &str) -> Option<PipelineResult> {
    fn take<'a>(lines: &mut std::str::Lines<'a>, name: &str) -> Option<&'a str> {
        lines.next()?.strip_prefix(name)?.strip_prefix(' ')
    }
    fn take_hex(lines: &mut std::str::Lines<'_>, name: &str) -> Option<f64> {
        Some(f64::from_bits(
            u64::from_str_radix(take(lines, name)?, 16).ok()?,
        ))
    }
    let mut lines = text.lines();
    if lines.next()? != "pipecut v1" {
        return None;
    }
    let stages: usize = take(&mut lines, "stages")?.parse().ok()?;
    let period = take_hex(&mut lines, "period")?;
    let frequency = take_hex(&mut lines, "frequency")?;
    let area_um2 = take_hex(&mut lines, "area_um2")?;
    let registers: usize = take(&mut lines, "registers")?.parse().ok()?;
    let seq_overhead = take_hex(&mut lines, "seq_overhead")?;
    let wire_overhead = take_hex(&mut lines, "wire_overhead")?;
    let mut stage_logic = Vec::new();
    for line in lines {
        let rest = line.strip_prefix("logic ")?;
        stage_logic.push(f64::from_bits(u64::from_str_radix(rest, 16).ok()?));
    }
    if stage_logic.len() != stages {
        return None;
    }
    Some(PipelineResult {
        stages,
        period,
        frequency,
        area_um2,
        registers,
        stage_logic,
        seq_overhead,
        wire_overhead,
    })
}

/// Serializes a synthesized core for the artifact cache. Every float is
/// written as its IEEE-754 bit pattern so reloads are bit-exact.
fn write_synth_text(core: &SynthesizedCore) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("synthcore v1\n");
    let _ = writeln!(s, "period {:016x}", core.period.to_bits());
    let _ = writeln!(s, "frequency {:016x}", core.frequency.to_bits());
    let _ = writeln!(s, "area_um2 {:016x}", core.area_um2.to_bits());
    let _ = writeln!(s, "seq_overhead {:016x}", core.seq_overhead.to_bits());
    let _ = writeln!(s, "wire_overhead {:016x}", core.wire_overhead.to_bits());
    let _ = writeln!(s, "critical {}", core.critical.name());
    for st in &core.stages {
        let _ = writeln!(
            s,
            "stage {} {} {:016x} {:016x}",
            st.kind.name(),
            st.substages,
            st.logic_delay.to_bits(),
            st.area_um2.to_bits()
        );
    }
    s
}

/// Inverse of [`write_synth_text`]; `None` on any malformed line, which the
/// cache treats as a miss (the entry is then recomputed and rewritten).
fn parse_synth_text(text: &str) -> Option<SynthesizedCore> {
    let mut lines = text.lines();
    if lines.next()? != "synthcore v1" {
        return None;
    }
    let mut field = |name: &str| -> Option<f64> {
        let line = lines.next()?;
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        Some(f64::from_bits(u64::from_str_radix(rest, 16).ok()?))
    };
    let period = field("period")?;
    let frequency = field("frequency")?;
    let area_um2 = field("area_um2")?;
    let seq_overhead = field("seq_overhead")?;
    let wire_overhead = field("wire_overhead")?;
    let critical = StageKind::from_name(lines.next()?.strip_prefix("critical ")?)?;
    let mut stages = Vec::new();
    for line in lines {
        let mut parts = line.split(' ');
        if parts.next()? != "stage" {
            return None;
        }
        stages.push(StageTiming {
            kind: StageKind::from_name(parts.next()?)?,
            substages: parts.next()?.parse().ok()?,
            logic_delay: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
            area_um2: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
        });
    }
    Some(SynthesizedCore {
        period,
        frequency,
        area_um2,
        stages,
        critical,
        seq_overhead,
        wire_overhead,
    })
}

/// Splits the currently critical (splittable) stage once — the paper's
/// manual pipeline-deepening move. Returns the deepened spec and which
/// stage was cut.
pub fn split_critical(kit: &TechKit, spec: &CoreSpec) -> (CoreSpec, StageKind) {
    let synth = synthesize_core_cached(kit, spec);
    // Pick the worst *splittable* stage by per-substage delay.
    let (kind, _) = synth
        .stages
        .iter()
        .filter(|s| s.kind.splittable())
        .map(|s| (s.kind, s.logic_delay))
        .fold(
            (StageKind::Fetch, 0.0),
            |acc, x| if x.1 > acc.1 { x } else { acc },
        );
    let mut deeper = spec.clone();
    deeper.splits.push(kind);
    (deeper, kind)
}

/// The paper's Figure-11 deepening chain: the 9-stage baseline, then one
/// spec per extra stage up to `stages`, each cutting the previous spec's
/// critical stage. A spec's `splits` are its cuts, in the order made.
pub fn split_chain(kit: &TechKit, stages: usize) -> Vec<CoreSpec> {
    let mut chain = vec![CoreSpec::baseline()];
    for _ in 9..stages {
        let deeper = split_critical(kit, &chain[chain.len() - 1]).0;
        chain.push(deeper);
    }
    chain
}

/// Simulates a workload on a design point and returns its statistics.
///
/// `instructions` bounds the run; all workloads halt on their own well
/// before any realistic budget.
pub fn measure_ipc(spec: &CoreSpec, workload: Workload, outer: u32, instructions: u64) -> SimStats {
    let program = build_workload(workload, outer);
    let mut core = OooCore::new(&program, spec.core_config(), workload.memory_words());
    core.run(instructions)
}

/// Memoizing wrapper around [`measure_ipc`] through [`cached`], the
/// workspace's one artifact-store path. The key hashes a schema salt, the
/// [`CoreSpec`] *and* the derived
/// [`CoreConfig`](bdc_uarch::CoreConfig) (so a change to the
/// spec→config mapping invalidates old runs), the workload, and the
/// simulation budget. Every [`SimStats`] field is an integer counter, so
/// the stored artifact is exact decimal text and a cache hit is identical
/// to the simulation it replaced. Concurrent misses on one key are
/// single-flighted.
pub fn measure_ipc_cached(
    spec: &CoreSpec,
    workload: Workload,
    outer: u32,
    instructions: u64,
) -> SimStats {
    let key = fnv1a(&[
        "bdc-ipc-v1",
        &format!("{spec:?}"),
        &format!("{:?}", spec.core_config()),
        workload.name(),
        &outer.to_string(),
        &instructions.to_string(),
    ]);
    let Ok(stats) = cached("ipc", key, parse_ipc_text, write_ipc_text, || {
        Ok::<_, Infallible>(measure_ipc(spec, workload, outer, instructions))
    });
    stats
}

/// Serializes simulation statistics for the artifact cache. All counters
/// are `u64`, so plain decimal text round-trips exactly.
fn write_ipc_text(stats: &SimStats) -> String {
    format!(
        "simstats v1\ncycles {}\ninstructions {}\nbranches {}\nmispredicts {}\nflushes {}\n\
         icache {} {}\ndcache {} {}\nloads {}\nstores {}\n",
        stats.cycles,
        stats.instructions,
        stats.branches,
        stats.mispredicts,
        stats.flushes,
        stats.icache.0,
        stats.icache.1,
        stats.dcache.0,
        stats.dcache.1,
        stats.loads,
        stats.stores,
    )
}

/// Inverse of [`write_ipc_text`]; `None` on any malformed line, which the
/// cache treats as a miss.
fn parse_ipc_text(text: &str) -> Option<SimStats> {
    let mut lines = text.lines();
    if lines.next()? != "simstats v1" {
        return None;
    }
    let mut nums = |name: &str, n: usize| -> Option<Vec<u64>> {
        let line = lines.next()?;
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        let vals: Vec<u64> = rest
            .split(' ')
            .map(|p| p.parse().ok())
            .collect::<Option<_>>()?;
        (vals.len() == n).then_some(vals)
    };
    let stats = SimStats {
        cycles: nums("cycles", 1)?[0],
        instructions: nums("instructions", 1)?[0],
        branches: nums("branches", 1)?[0],
        mispredicts: nums("mispredicts", 1)?[0],
        flushes: nums("flushes", 1)?[0],
        icache: {
            let v = nums("icache", 2)?;
            (v[0], v[1])
        },
        dcache: {
            let v = nums("dcache", 2)?;
            (v[0], v[1])
        },
        loads: nums("loads", 1)?[0],
        stores: nums("stores", 1)?[0],
    };
    lines.next().is_none().then_some(stats)
}

/// `performance = IPC × frequency` (the paper's §5.3/§5.4 metric), in
/// instructions per second.
pub fn performance(ipc: f64, frequency: f64) -> f64 {
    ipc * frequency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    #[test]
    fn alu_cluster_is_large_and_valid() {
        let alu = alu_cluster();
        alu.validate().unwrap();
        assert!(alu.gates().len() > 20_000, "gates = {}", alu.gates().len());
    }

    #[test]
    fn synthesize_core_baseline_synthetic() {
        let kit = TechKit::synthetic(Process::Silicon);
        let spec = CoreSpec::baseline();
        let core = synthesize_core(&kit, &spec);
        assert!(core.period > 0.0);
        assert_eq!(core.stages.len(), 9);
        assert!(core.area_um2 > 0.0);
        // Tail stages should not be critical.
        assert!(core.critical.splittable());
    }

    #[test]
    fn splitting_critical_stage_raises_frequency() {
        let kit = TechKit::synthetic(Process::Silicon);
        let spec = CoreSpec::baseline();
        let base = synthesize_core(&kit, &spec);
        let (deeper, cut) = split_critical(&kit, &spec);
        let faster = synthesize_core(&kit, &deeper);
        assert_eq!(deeper.total_stages(), 10);
        assert!(cut.splittable());
        assert!(
            faster.frequency > base.frequency,
            "10-stage {:.3e} vs 9-stage {:.3e}",
            faster.frequency,
            base.frequency
        );
    }

    #[test]
    fn wider_cores_are_bigger() {
        let kit = TechKit::synthetic(Process::Silicon);
        let narrow = synthesize_core(&kit, &CoreSpec::with_widths(1, 3));
        let wide = synthesize_core(&kit, &CoreSpec::with_widths(6, 7));
        assert!(wide.area_um2 > 1.5 * narrow.area_um2);
    }

    #[test]
    fn synth_cache_text_round_trips_bit_exact() {
        let kit = TechKit::synthetic(Process::Silicon);
        let core = synthesize_core(&kit, &CoreSpec::baseline());
        let parsed = parse_synth_text(&write_synth_text(&core)).expect("parse");
        assert_eq!(parsed.period.to_bits(), core.period.to_bits());
        assert_eq!(parsed.frequency.to_bits(), core.frequency.to_bits());
        assert_eq!(parsed.area_um2.to_bits(), core.area_um2.to_bits());
        assert_eq!(parsed.critical, core.critical);
        assert_eq!(parsed.stages.len(), core.stages.len());
        for (a, b) in parsed.stages.iter().zip(&core.stages) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.substages, b.substages);
            assert_eq!(a.logic_delay.to_bits(), b.logic_delay.to_bits());
            assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits());
        }
        assert!(parse_synth_text("garbage").is_none());
    }

    #[test]
    fn ipc_measurement_runs() {
        let spec = CoreSpec::baseline();
        let stats = measure_ipc(&spec, Workload::Dhrystone, 30, 100_000);
        assert!(stats.ipc() > 0.05 && stats.ipc() <= 1.0);
        assert!(performance(stats.ipc(), 1.0e6) > 0.0);
    }

    #[test]
    fn ipc_cache_text_round_trips_exactly() {
        let stats = SimStats {
            cycles: 123_456,
            instructions: 98_765,
            branches: 4321,
            mispredicts: 321,
            flushes: 17,
            icache: (90_000, 1_234),
            dcache: (45_000, 678),
            loads: 20_000,
            stores: 10_000,
        };
        assert_eq!(parse_ipc_text(&write_ipc_text(&stats)), Some(stats));
        assert_eq!(parse_ipc_text("garbage"), None);
        assert_eq!(parse_ipc_text("simstats v1\ncycles x\n"), None);
        // Trailing junk must not parse as a valid artifact.
        let trailing = format!("{}extra\n", write_ipc_text(&stats));
        assert_eq!(parse_ipc_text(&trailing), None);
    }

    #[test]
    fn pipeline_cache_text_round_trips_bit_exact() {
        let kit = TechKit::synthetic(Process::Organic);
        let alu = alu_cluster();
        let r = pipeline_alu(&kit, &alu, 3);
        let parsed = parse_pipeline_text(&write_pipeline_text(&r)).expect("parse");
        assert_eq!(parsed.stages, r.stages);
        assert_eq!(parsed.registers, r.registers);
        for (a, b) in [
            (parsed.period, r.period),
            (parsed.frequency, r.frequency),
            (parsed.area_um2, r.area_um2),
            (parsed.seq_overhead, r.seq_overhead),
            (parsed.wire_overhead, r.wire_overhead),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(parsed.stage_logic.len(), r.stage_logic.len());
        for (a, b) in parsed.stage_logic.iter().zip(&r.stage_logic) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(parse_pipeline_text("garbage").is_none());
        // A truncated stage list must not parse.
        let short = write_pipeline_text(&r);
        let short = short.trim_end_matches('\n');
        let short = &short[..short.rfind('\n').unwrap() + 1];
        assert!(parse_pipeline_text(short).is_none());
    }

    #[test]
    fn cached_pipeline_alu_matches_uncached() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-alu-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("BDC_CACHE_DIR", &dir);
        let kit = TechKit::synthetic(Process::Silicon);
        let alu = alu_cluster();
        let cold = pipeline_alu_cached(&kit, &alu, 4);
        let warm = pipeline_alu_cached(&kit, &alu, 4);
        let direct = pipeline_alu(&kit, &alu, 4);
        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        for r in [&cold, &warm] {
            assert_eq!(r.period.to_bits(), direct.period.to_bits());
            assert_eq!(r.area_um2.to_bits(), direct.area_um2.to_bits());
            assert_eq!(r.registers, direct.registers);
            assert_eq!(r.stage_logic.len(), direct.stage_logic.len());
        }
    }

    #[test]
    fn cached_ipc_matches_uncached() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-ipc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Route the shared cache at a private directory for this test; the
        // env lock serializes against other env-redirecting unit tests.
        std::env::set_var("BDC_CACHE_DIR", &dir);
        let spec = CoreSpec::baseline();
        let cold = measure_ipc_cached(&spec, Workload::Gzip, 5, 4_000);
        let warm = measure_ipc_cached(&spec, Workload::Gzip, 5, 4_000);
        let direct = measure_ipc(&spec, Workload::Gzip, 5, 4_000);
        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
    }
}
