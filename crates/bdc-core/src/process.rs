//! Process technologies and their characterized kits.

use std::path::PathBuf;
use std::sync::OnceLock;

use bdc_cells::{Cell, CellLibrary, LogicKind, WireModel};
use bdc_circuit::CircuitError;
use bdc_exec::{cached, note_stage, ArtifactCache, MemoTable};
use bdc_synth::pipeline::PipelineOptions;
use bdc_synth::sta::StaConfig;

use crate::stage::{self, ParamOverlay};

pub use bdc_cells::Process;

/// The `(name, key)` pair under which [`TechKit::load_or_build`] caches a
/// process's characterized library — the address a cluster peer fetch or a
/// benchmark probe uses to ask a shard's cache for the exact artifact the
/// flow would otherwise recompute. The key is the nominal-point *stage*
/// key ([`stage::library_stage_key`]): a chained hash of the device
/// model, each cell's DC and NLDM stages, and the library assembly
/// recipe, so every knob that reaches the artifact reaches the key.
pub fn library_artifact(process: Process) -> (String, u64) {
    (
        format!("lib-{}", process.name()),
        stage::library_stage_key(process, &ParamOverlay::default()),
    )
}

/// A process bound to its characterized library and synthesis settings.
#[derive(Debug, Clone)]
pub struct TechKit {
    /// Which process this is.
    pub process: Process,
    /// Characterized 6-cell library.
    pub lib: CellLibrary,
    /// STA settings (placement model).
    pub sta: StaConfig,
    /// Pipelining settings (feedback-wire model, skew, driver sizing):
    /// [`PipelineOptions::with_stages`].
    pub pipe: PipelineOptions,
}

impl TechKit {
    /// Characterizes the process's library (1–2 s of circuit simulation)
    /// and returns the kit.
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn build(process: Process) -> Result<TechKit, CircuitError> {
        let lib = build_library(process, &ParamOverlay::default(), false)?;
        Ok(Self::with_library(process, lib))
    }

    /// Builds the kit around an existing library (used by the cached
    /// accessor and the wire ablations).
    pub fn with_library(process: Process, lib: CellLibrary) -> TechKit {
        TechKit {
            process,
            lib,
            sta: StaConfig::default(),
            pipe: PipelineOptions::with_stages(1),
        }
    }

    /// Like [`TechKit::build`], but memoized through the workspace-wide
    /// content-addressed [`ArtifactCache`] (`results/cache/`, or
    /// `BDC_CACHE_DIR`) at per-stage granularity: the assembled library
    /// is stored as its Liberty-dialect text under its stage key, and on
    /// a library miss each *cell* is loaded or recharacterized
    /// individually under its own stage key (`cell-{process}-{name}`),
    /// so a parameter change recomputes only the cells whose input keys
    /// actually moved. Invalidation is key change — editing the grid,
    /// sizing, rails, or device model addresses different entries and
    /// the stale ones are simply never read again. This is the entry
    /// point every experiment routes through.
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn load_or_build(process: Process) -> Result<TechKit, CircuitError> {
        Self::load_or_build_with(process, &ParamOverlay::default())
    }

    /// [`TechKit::load_or_build`] at an explicit parameter point: the
    /// sweep entry point. At the default overlay the artifact bytes are
    /// identical to the nominal flow's; at any other point every
    /// overlay-sensitive stage re-keys (see [`crate::stage`]) while
    /// untouched stages — the other process's cells, IPC — stay warm.
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn load_or_build_with(
        process: Process,
        overlay: &ParamOverlay,
    ) -> Result<TechKit, CircuitError> {
        let name = format!("lib-{}", process.name());
        let key = stage::library_stage_key(process, overlay);
        let build = || {
            let decode = |text: &str| {
                bdc_cells::parse_library(text)
                    .ok()
                    .filter(|lib| lib.process == process)
            };
            let lib = cached(&name, key, decode, bdc_cells::write_library, || {
                build_library(process, overlay, true)
            })?;
            Ok(Self::with_library(process, lib))
        };
        let store = ArtifactCache::shared();
        if !store.is_enabled() {
            return build();
        }
        // In-process kit memo: concurrent plan nodes that miss the same
        // library key block on one builder instead of each re-parsing the
        // library, and a memo hit still counts as a library hit. Keyed by
        // (cache root, stage key) so tests that redirect `BDC_CACHE_DIR`
        // mid-process get a fresh slot.
        static KITS: MemoTable<(PathBuf, u64), TechKit> = MemoTable::new();
        let mut built = false;
        let kit = KITS.get_or_try((store.root().to_path_buf(), key), || {
            built = true;
            build()
        })?;
        if !built {
            note_stage(&name, true);
        }
        Ok(kit)
    }

    /// A fast, simulation-free kit (synthetic constant-delay library with
    /// the right orders of magnitude) for unit tests.
    pub fn synthetic(process: Process) -> TechKit {
        let lib = CellLibrary::synthetic(process, process.tech().synthetic.gate_delay);
        Self::with_library(process, lib)
    }

    /// The same kit with ideal (zero-delay) wires — the Figure 15 ablation.
    pub fn without_wires(&self) -> TechKit {
        let mut kit = self.clone();
        kit.lib = kit.lib.with_wire(WireModel::ideal());
        kit
    }
}

/// Characterizes the five combinational cells in [`LogicKind::all`]
/// order and assembles the library. With `store`, each cell is first
/// looked up in the stage cache under its own key and only the misses
/// are characterized; without it ([`TechKit::build`]) every cell is
/// characterized. Characterization itself is internally parallel (the
/// batch kernel), so cell-level serialism costs nothing and keeps
/// assembly order bit-stable.
fn build_library(
    process: Process,
    overlay: &ParamOverlay,
    store: bool,
) -> Result<CellLibrary, CircuitError> {
    let tech = process.tech();
    let cells = LogicKind::all()
        .into_iter()
        .map(|kind| {
            let build = || tech.build_cell(kind, overlay);
            if !store {
                return build();
            }
            let (name, key) = stage::cell_artifact(process, kind, overlay);
            let decode = |text: &str| {
                bdc_cells::parse_cell_text(text).filter(|cell| cell.kind.logic() == Some(kind))
            };
            cached(&name, key, decode, bdc_cells::write_cell_text, build)
        })
        .collect::<Result<Vec<Cell>, _>>()?;
    Ok(tech.assemble(cells))
}

/// Returns a lazily characterized, process-wide shared kit. The expensive
/// circuit-level characterization runs once per process per process-lifetime
/// — and, through [`TechKit::load_or_build`], once per recipe per *machine*:
/// later processes reload the characterized library from the artifact cache.
///
/// # Panics
/// Panics if characterization fails (deterministic; covered by tests).
pub fn shared_kit(process: Process) -> &'static TechKit {
    static KITS: [OnceLock<TechKit>; 2] = [OnceLock::new(), OnceLock::new()];
    KITS[process.index()]
        .get_or_init(|| TechKit::load_or_build(process).expect("library characterization"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_kits_have_right_magnitudes() {
        let org = TechKit::synthetic(Process::Organic);
        let si = TechKit::synthetic(Process::Silicon);
        assert!(org.lib.fo4_delay() > 1.0e5 * si.lib.fo4_delay());
        assert_eq!(org.process.name(), "organic");
    }

    #[test]
    fn without_wires_zeroes_the_wire_model() {
        let kit = TechKit::synthetic(Process::Silicon).without_wires();
        assert_eq!(kit.lib.wire.delay(1.0e-3, 3.0e3), 0.0);
    }

    #[test]
    fn library_artifact_matches_the_load_or_build_address() {
        let (org_name, org_key) = library_artifact(Process::Organic);
        let (si_name, si_key) = library_artifact(Process::Silicon);
        assert_eq!(org_name, "lib-organic");
        assert_eq!(si_name, "lib-silicon");
        // Different processes address different artifacts, and the key is
        // stable across calls (it is what load_or_build hashes).
        assert_ne!(org_key, si_key);
        assert_eq!(
            org_key,
            stage::library_stage_key(Process::Organic, &ParamOverlay::default())
        );
    }

    #[test]
    fn load_or_build_round_trips_through_the_store() {
        let _env = crate::testenv::cache_env_lock();
        let base = std::env::temp_dir().join(format!("bdc-kit-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        // The kit memo is per cache root, so each load below gets a fresh
        // root and must go through the store.
        let load_in = |root: &str| {
            std::env::set_var("BDC_CACHE_DIR", base.join(root));
            let kit = TechKit::load_or_build(Process::Silicon);
            std::env::remove_var("BDC_CACHE_DIR");
            kit.expect("characterize")
        };
        let copy_store = |from: &str, to: &str| {
            std::fs::create_dir_all(base.join(to)).unwrap();
            for entry in std::fs::read_dir(base.join(from)).unwrap().flatten() {
                std::fs::copy(entry.path(), base.join(to).join(entry.file_name())).unwrap();
            }
        };
        let scope = bdc_exec::new_scope();
        let _scope = bdc_exec::enter_scope(scope);
        let liberty = bdc_cells::write_library(&load_in("cold").lib);
        // The reload from disk is bit-exact.
        copy_store("cold", "warm");
        assert_eq!(bdc_cells::write_library(&load_in("warm").lib), liberty);
        // A stored library that fails to decode is rebuilt from the warm
        // cells and rewritten.
        copy_store("cold", "garbled");
        let (name, key) = library_artifact(Process::Silicon);
        let garbled = ArtifactCache::new(base.join("garbled"));
        assert!(garbled.store(&name, key, "garbage"));
        assert_eq!(bdc_cells::write_library(&load_in("garbled").lib), liberty);
        assert_eq!(garbled.load(&name, key), Some(liberty));
        let tallies = bdc_exec::scope_counters(scope);
        assert_eq!(tallies.get("lib-silicon"), Some(&(1, 2)));
        assert_eq!(tallies.get("cell-silicon-inv"), Some(&(1, 1)));
        let _ = std::fs::remove_dir_all(&base);
    }
}
