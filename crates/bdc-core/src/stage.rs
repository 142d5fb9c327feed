//! The fine-grained dataflow stage graph and its content-addressed keys.
//!
//! The flow is a chain of pure stages — device model → per-cell DC
//! operating point → per-(cell, edge) NLDM surface → assembled library →
//! mapped netlist/STA → IPC — and each stage's cache key hashes only its
//! *true* inputs: the keys of its upstream stages plus its own
//! parameters. Changing one device parameter (a V_T shift, say) therefore
//! re-keys exactly the organic device stage and its downstream cone; the
//! silicon stages, the process-independent IPC stage, and every
//! experiment that reads none of the changed stages keep their old keys
//! and stay warm. [`stage_graph`] materializes the whole graph for one
//! parameter point so `bdc verify` can prove it acyclic and
//! input-sensitive, and the sweep manifest can name what a point reused.
//!
//! Granularity note: keys exist per (cell, edge) — the NLDM rise and fall
//! surfaces hash separately — but the *materialized* cache unit is the
//! per-cell record (`cell-{process}-{name}`), because the batch kernel
//! characterizes both edges of a cell in one solver pass and splitting
//! the artifact would double I/O without saving any recomputation. The
//! edge keys still appear in the graph (and in `bdc verify`'s
//! sensitivity pass) so the invalidation cone is provable at the finest
//! level the physics has.
//!
//! Synthesized-core artifacts keep their *content-chained* key (a
//! fingerprint of the rendered library text, see
//! [`crate::flow::synthesize_core_cached`]): that is strictly stronger
//! than hashing the library's input keys — two parameter points that
//! happen to characterize to identical libraries share synth artifacts.
//! The [`synth_stage_key`] here is the graph-level view of the same
//! stage, used for sensitivity proofs.

use bdc_cells::{CellKind, CellRecipe, LogicKind, Technology};
use bdc_exec::fnv1a;

use crate::process::Process;

pub use bdc_cells::ParamOverlay;

fn cell_name(kind: LogicKind) -> &'static str {
    CellKind::from_logic(kind).name()
}

/// Stage 1 — the device model. A pseudo-E technology hashes its
/// device's full parameter set plus the overlay's V_T delta; a CMOS
/// technology hashes its geometry and is overlay-independent by
/// construction.
pub fn device_stage_key(process: Process, overlay: &ParamOverlay) -> u64 {
    let tech = process.tech();
    match &tech.recipe {
        CellRecipe::PseudoE { device, .. } => fnv1a(&[
            "bdc-stage-device-v1",
            tech.name,
            &format!("{device:?}"),
            &overlay.canonical(),
        ]),
        CellRecipe::Cmos { l_key, .. } => fnv1a(&[
            "bdc-stage-device-v1",
            tech.name,
            &format!("l={l_key} vdd={}", tech.vdd),
        ]),
    }
}

fn rails_recipe(tech: &Technology) -> String {
    match tech.recipe {
        CellRecipe::PseudoE { sizing, .. } => {
            format!("vdd={} vss={} sizing={sizing:?}", tech.vdd, tech.vss)
        }
        CellRecipe::Cmos { l_key, .. } => format!("vdd={} l={l_key}", tech.vdd),
    }
}

/// Stage 2 — one cell's topology and DC operating point: the device
/// stage key chained with the cell's logic kind, sizing and rails.
pub fn cell_dc_stage_key(process: Process, kind: LogicKind, overlay: &ParamOverlay) -> u64 {
    fnv1a(&[
        "bdc-stage-dc-v1",
        process.name(),
        cell_name(kind),
        &format!("{:016x}", device_stage_key(process, overlay)),
        &rails_recipe(process.tech()),
    ])
}

/// Stage 3 — one (cell, edge) NLDM surface: the DC stage key chained
/// with the characterization grid and the edge direction.
pub fn cell_edge_stage_key(
    process: Process,
    kind: LogicKind,
    overlay: &ParamOverlay,
    rising: bool,
) -> u64 {
    fnv1a(&[
        "bdc-stage-nldm-v1",
        &format!("{:016x}", cell_dc_stage_key(process, kind, overlay)),
        &format!("{:?}", process.tech().characterize),
        if rising { "rise" } else { "fall" },
    ])
}

/// The materialized per-cell record key (`cell-{process}-{name}` in the
/// artifact cache): both edge surfaces plus the DC stage (leakage and
/// static power come from the operating point).
pub fn cell_stage_key(process: Process, kind: LogicKind, overlay: &ParamOverlay) -> u64 {
    fnv1a(&[
        "bdc-stage-cell-v1",
        &format!("{:016x}", cell_dc_stage_key(process, kind, overlay)),
        &format!("{:016x}", cell_edge_stage_key(process, kind, overlay, true)),
        &format!(
            "{:016x}",
            cell_edge_stage_key(process, kind, overlay, false)
        ),
    ])
}

/// The `(name, key)` artifact-cache address of one cell's materialized
/// record — what [`crate::process::TechKit::load_or_build_with`] stores
/// and a cluster peer fetch addresses.
pub fn cell_artifact(process: Process, kind: LogicKind, overlay: &ParamOverlay) -> (String, u64) {
    (
        format!("cell-{}-{}", process.name(), cell_name(kind)),
        cell_stage_key(process, kind, overlay),
    )
}

/// Stage 4 — the assembled library (`lib-{process}`): the five
/// combinational cell keys chained with the DFF derivation recipe and
/// the wire model.
pub fn library_stage_key(process: Process, overlay: &ParamOverlay) -> u64 {
    let cell_keys: Vec<String> = LogicKind::all()
        .into_iter()
        .map(|k| format!("{:016x}", cell_stage_key(process, k, overlay)))
        .collect();
    let tech = process.tech();
    let dff_recipe = format!(
        "dff=6nand area_factor={:?} wire={}",
        tech.dff_area_factor, tech.wire_name
    );
    let mut parts: Vec<&str> = vec!["bdc-stage-lib-v1", process.name()];
    parts.extend(cell_keys.iter().map(String::as_str));
    parts.push(&dff_recipe);
    fnv1a(&parts)
}

/// Stage 5 — mapped netlist + STA for one process, as the graph sees it:
/// the library stage key chained with the synthesis settings. (Actual
/// synth artifacts are keyed by library *content*; see the module docs.)
pub fn synth_stage_key(process: Process, overlay: &ParamOverlay) -> u64 {
    fnv1a(&[
        "bdc-stage-synth-v1",
        process.name(),
        &format!("{:016x}", library_stage_key(process, overlay)),
        "sta=default pipe=calibrated",
    ])
}

/// Stage 6 — cycle-accurate IPC. Deliberately *not* chained to any
/// library: IPC is a property of the microarchitecture and workload
/// alone, so every parameter point of a sweep shares these artifacts.
pub fn ipc_stage_key() -> u64 {
    fnv1a(&["bdc-stage-ipc-v1", "uarch=ooo-model workloads=suite"])
}

/// One vertex of the materialized stage graph.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// Stable stage name (`device-organic`, `cell-silicon-nand2`, …).
    pub name: String,
    /// The stage's content-addressed key at this parameter point.
    pub key: u64,
    /// Names of the stages whose keys this one chains (its true inputs).
    pub parents: Vec<String>,
}

/// The whole dataflow graph at one parameter point: every stage with its
/// key and its input edges, in one deterministic order.
#[derive(Debug, Clone)]
pub struct StageGraph {
    /// All stages, processes in [`Process::both`] order, then IPC.
    pub nodes: Vec<StageNode>,
}

impl StageGraph {
    /// Looks up a stage by name.
    pub fn node(&self, name: &str) -> Option<&StageNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Edges as `(parent_index, child_index)` pairs over `nodes`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let index = |name: &str| self.nodes.iter().position(|n| n.name == name);
        let mut edges = Vec::new();
        for (child, node) in self.nodes.iter().enumerate() {
            for parent in &node.parents {
                if let Some(p) = index(parent) {
                    edges.push((p, child));
                }
            }
        }
        edges
    }
}

/// Materializes the stage graph for one parameter point.
pub fn stage_graph(overlay: &ParamOverlay) -> StageGraph {
    let mut nodes = Vec::new();
    for process in Process::both() {
        let p = process.name();
        let device = format!("device-{p}");
        nodes.push(StageNode {
            name: device.clone(),
            key: device_stage_key(process, overlay),
            parents: vec![],
        });
        let mut lib_parents = Vec::new();
        for kind in LogicKind::all() {
            let c = cell_name(kind);
            let dc = format!("dc-{p}-{c}");
            nodes.push(StageNode {
                name: dc.clone(),
                key: cell_dc_stage_key(process, kind, overlay),
                parents: vec![device.clone()],
            });
            let mut cell_parents = vec![dc.clone()];
            for rising in [true, false] {
                let edge = format!("nldm-{p}-{c}-{}", if rising { "rise" } else { "fall" });
                nodes.push(StageNode {
                    name: edge.clone(),
                    key: cell_edge_stage_key(process, kind, overlay, rising),
                    parents: vec![dc.clone()],
                });
                cell_parents.push(edge);
            }
            let cell = format!("cell-{p}-{c}");
            nodes.push(StageNode {
                name: cell.clone(),
                key: cell_stage_key(process, kind, overlay),
                parents: cell_parents,
            });
            lib_parents.push(cell);
        }
        let lib = format!("lib-{p}");
        nodes.push(StageNode {
            name: lib.clone(),
            key: library_stage_key(process, overlay),
            parents: lib_parents,
        });
        nodes.push(StageNode {
            name: format!("synth-{p}"),
            key: synth_stage_key(process, overlay),
            parents: vec![lib],
        });
    }
    nodes.push(StageNode {
        name: "ipc".to_string(),
        key: ipc_stage_key(),
        parents: vec![],
    });
    StageGraph { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_overlay_is_nominal_and_canonical_roundtrips() {
        let ov = ParamOverlay::default();
        assert!(ov.is_default());
        assert_eq!(ov.canonical(), "organic.dvt=0000000000000000");
        assert_eq!(ParamOverlay::from_canonical(&ov.canonical()), Some(ov));
        // -0.0 is a different point by design.
        let neg = ParamOverlay {
            organic_delta_vt: -0.0,
        };
        assert!(!neg.is_default());
        assert_ne!(neg.canonical(), ov.canonical());
        assert_eq!(ParamOverlay::from_canonical("organic.dvt=zz"), None);
        assert_eq!(ParamOverlay::from_canonical("organic.vt=00"), None);
    }

    #[test]
    fn overlay_perturbs_exactly_the_organic_cone() {
        let nominal = ParamOverlay::default();
        let shifted = ParamOverlay {
            organic_delta_vt: 0.25,
        };
        // Organic cone re-keys...
        assert_ne!(
            device_stage_key(Process::Organic, &nominal),
            device_stage_key(Process::Organic, &shifted)
        );
        for kind in LogicKind::all() {
            assert_ne!(
                cell_stage_key(Process::Organic, kind, &nominal),
                cell_stage_key(Process::Organic, kind, &shifted),
            );
        }
        assert_ne!(
            library_stage_key(Process::Organic, &nominal),
            library_stage_key(Process::Organic, &shifted)
        );
        assert_ne!(
            synth_stage_key(Process::Organic, &nominal),
            synth_stage_key(Process::Organic, &shifted)
        );
        // ...while the silicon cone and IPC stay put.
        assert_eq!(
            device_stage_key(Process::Silicon, &nominal),
            device_stage_key(Process::Silicon, &shifted)
        );
        for kind in LogicKind::all() {
            assert_eq!(
                cell_stage_key(Process::Silicon, kind, &nominal),
                cell_stage_key(Process::Silicon, kind, &shifted),
            );
        }
        assert_eq!(
            library_stage_key(Process::Silicon, &nominal),
            library_stage_key(Process::Silicon, &shifted)
        );
    }

    #[test]
    fn stage_graph_names_and_keys_are_unique() {
        let g = stage_graph(&ParamOverlay::default());
        let mut names: Vec<&str> = g.nodes.iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), g.nodes.len(), "duplicate stage name");
        let mut keys: Vec<u64> = g.nodes.iter().map(|n| n.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), g.nodes.len(), "stage key collision");
        // Every parent resolves, and every edge is materialized.
        for n in &g.nodes {
            for p in &n.parents {
                assert!(g.node(p).is_some(), "{} has unknown parent {p}", n.name);
            }
        }
        let per_process = 1 + LogicKind::all().len() * 4 + 2;
        assert_eq!(g.nodes.len(), 2 * per_process + 1);
        assert_eq!(
            g.edges().len(),
            g.nodes.iter().map(|n| n.parents.len()).sum::<usize>()
        );
    }

    proptest! {
        // Stage-key soundness: unequal parameter inputs produce unequal
        // keys at every overlay-sensitive stage, and the canonical text
        // form round-trips bit-exactly (so a manifest can reconstruct
        // the exact point).
        #[test]
        fn unequal_overlays_never_share_organic_keys(a in -2.0f64..2.0, b in -2.0f64..2.0) {
            let oa = ParamOverlay { organic_delta_vt: a };
            let ob = ParamOverlay { organic_delta_vt: b };
            prop_assume!(a.to_bits() != b.to_bits());
            prop_assert_ne!(device_stage_key(Process::Organic, &oa),
                            device_stage_key(Process::Organic, &ob));
            prop_assert_ne!(cell_stage_key(Process::Organic, LogicKind::Nand2, &oa),
                            cell_stage_key(Process::Organic, LogicKind::Nand2, &ob));
            prop_assert_ne!(library_stage_key(Process::Organic, &oa),
                            library_stage_key(Process::Organic, &ob));
        }

        #[test]
        fn overlay_canonical_roundtrip_is_stable(bits in any::<u64>()) {
            let ov = ParamOverlay { organic_delta_vt: f64::from_bits(bits) };
            let back = ParamOverlay::from_canonical(&ov.canonical()).expect("roundtrip");
            prop_assert_eq!(back.organic_delta_vt.to_bits(), bits);
            prop_assert_eq!(back.canonical(), ov.canonical());
        }

        #[test]
        fn distinct_stages_never_collide_at_any_point(dvt in -2.0f64..2.0) {
            let g = stage_graph(&ParamOverlay { organic_delta_vt: dvt });
            let mut keys: Vec<u64> = g.nodes.iter().map(|n| n.key).collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), g.nodes.len());
        }
    }
}
