//! The campaign cell pipeline: the one place a campaign turns selected
//! (fault × schedule) cells into results.
//!
//! Every campaign mode is a composition of [`CellPipeline::run`]:
//!
//! 1. the static pre-screen ([`effective_schedules`]) fixes the matrix
//!    when the pipeline is built;
//! 2. golden baselines are resolved for every schedule the selected
//!    cells touch — from the store when it has them, else simulated;
//! 3. each selected cell is looked up in the store; the missing ones
//!    are simulated on the farm and written back;
//! 4. the hits the store marks for verification are re-run and
//!    compared with the stored value;
//! 5. detected scan faults are diagnosed through the same store.
//!
//! The [`CellStore`] is the seam between the computation and where its
//! results live — Klingauf's communication/computation split, with the
//! store in the role of the `TAM_IF`. Three stores exist: [`NoStore`]
//! (plain, sharded and guided runs), the checkpoint journal
//! (`resume.rs`) and the `tve-serve` result cache. Because the cell
//! computation exists only here, a served, resumed or sharded matrix
//! equals the plain one by construction.

use std::collections::BTreeMap;
use std::fmt;

use tve_core::{Schedule, StuckCell};
use tve_sched::{Farm, SupervisePolicy, SupervisedError};
use tve_soc::{run_scenario, ScenarioMetrics, WrappedCore};

use crate::engine::{diagnose_scan_fault, run_cell, CampaignConfig};
use crate::fault::FaultSpec;
use crate::matrix::{CampaignReport, CellOutcome, CellResult, DiagnosisCheck, PrescreenedSchedule};
use crate::shard::{campaign_fingerprint, effective_schedules, ShardReport, ShardSpec};

/// A value a [`CellStore`] already holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit<T> {
    /// The stored value.
    pub value: T,
    /// Whether the pipeline must re-run the computation and compare
    /// (sampled cache verification).
    pub verify: bool,
}

/// Where the pipeline finds results computed earlier and keeps new
/// ones. Every method defaults to "holds nothing, keeps nothing", so a
/// store implements only what it persists. An `Err` is a store I/O
/// failure and surfaces as [`PipelineError::Store`].
pub trait CellStore {
    /// A stored golden baseline of `schedule`.
    fn golden(&mut self, _schedule: &Schedule) -> Result<Option<Hit<ScenarioMetrics>>, String> {
        Ok(None)
    }

    /// Keeps a freshly simulated golden baseline.
    fn put_golden(
        &mut self,
        _schedule: &Schedule,
        _golden: &ScenarioMetrics,
    ) -> Result<(), String> {
        Ok(())
    }

    /// A stored outcome of the cell at global matrix `index`.
    fn cell(
        &mut self,
        _index: usize,
        _fault_id: &str,
        _schedule: &Schedule,
    ) -> Result<Option<Hit<CellOutcome>>, String> {
        Ok(None)
    }

    /// Keeps one farm batch of fresh cells as `(global index, schedule,
    /// result)`, in index order.
    fn put_cells(&mut self, _cells: &[(usize, &Schedule, CellResult)]) -> Result<(), String> {
        Ok(())
    }

    /// A stored diagnosis check of the scan fault `fault_id`.
    fn diagnosis(&mut self, _fault_id: &str) -> Result<Option<DiagnosisCheck>, String> {
        Ok(None)
    }

    /// Keeps one farm batch of fresh diagnosis checks.
    fn put_diagnoses(&mut self, _checks: &[DiagnosisCheck]) -> Result<(), String> {
        Ok(())
    }

    /// Items per farm call. `None` (the default) sends all missing
    /// cells — and all missing diagnoses — in one call; the journal
    /// answers its worker count so a kill loses at most one batch.
    fn batch(&self) -> Option<usize> {
        None
    }
}

/// The store that holds and keeps nothing: every cell is simulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoStore;

impl CellStore for NoStore {}

/// Why a pipeline run produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A golden baseline failed, panicked or reported test errors.
    Golden(String),
    /// A diagnosis check panicked.
    Diagnosis(String),
    /// The farm batch was cancelled (deadline or external token).
    Cancelled,
    /// The store could not be read or written.
    Store(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Golden(m) | PipelineError::Diagnosis(m) | PipelineError::Store(m) => {
                f.write_str(m)
            }
            PipelineError::Cancelled => f.write_str("batch cancelled"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// What one run took from the store versus computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Golden baselines simulated.
    pub goldens_simulated: usize,
    /// Cells simulated.
    pub cells_simulated: usize,
    /// Cells the store held (resumed from a journal, served from a
    /// cache).
    pub cells_stored: usize,
    /// Diagnosis checks run.
    pub diagnoses_simulated: usize,
    /// Diagnosis checks the store held.
    pub diagnoses_stored: usize,
    /// Store hits re-run and compared.
    pub verified: usize,
}

/// The result of one [`CellPipeline::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRun {
    /// The selected cells as `(global index, result)`, in index order.
    pub cells: Vec<(usize, CellResult)>,
    /// Diagnosis checks of the scan faults detected within the selected
    /// cells, in population order.
    pub diagnosis: Vec<DiagnosisCheck>,
    /// What came from the store and what was computed.
    pub counts: CellCounts,
    /// The verified hits whose fresh result differed from the stored
    /// one, named `golden '<schedule>'` or `cell <fault> x '<schedule>'`.
    pub verify_failures: Vec<String>,
}

/// One campaign's matrix, ready to run any selection of its cells on a
/// farm. Golden baselines are remembered across runs, so a selector
/// that calls [`CellPipeline::run`] repeatedly simulates each once.
pub struct CellPipeline<'a> {
    /// The campaign as given.
    config: CampaignConfig,
    /// Its effective (post-pre-screen) schedules.
    schedules: Vec<Schedule>,
    prescreened: Vec<PrescreenedSchedule>,
    farm: &'a Farm,
    policy: SupervisePolicy,
    golden: BTreeMap<String, ScenarioMetrics>,
}

impl<'a> CellPipeline<'a> {
    /// The pipeline of `config` on `farm`, under the default (no-retry)
    /// farm policy. Applies the static pre-screen when configured.
    pub fn new(config: &CampaignConfig, farm: &'a Farm) -> Self {
        let (schedules, prescreened) = effective_schedules(config);
        CellPipeline {
            config: config.clone(),
            schedules,
            prescreened,
            farm,
            policy: SupervisePolicy::default(),
            golden: BTreeMap::new(),
        }
    }

    /// The same pipeline running its farm batches under `policy`
    /// (retries, external cancellation, chaos).
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The effective (post-pre-screen) schedules, in campaign order.
    pub fn schedules(&self) -> &[Schedule] {
        &self.schedules
    }

    /// The schedules the static pre-screen rejected.
    pub fn prescreened(&self) -> &[PrescreenedSchedule] {
        &self.prescreened
    }

    /// [`campaign_fingerprint`] of the configuration as given.
    pub fn fingerprint(&self) -> u64 {
        campaign_fingerprint(&self.config)
    }

    /// Matrix size: population × effective schedules.
    pub fn total_cells(&self) -> usize {
        self.config.population.len() * self.schedules.len()
    }

    /// Runs every cell whose global (fault-major) index `select`
    /// accepts: goldens, cells, verification and diagnosis, each looked
    /// up in `store` first. A panicking cell is an
    /// [`CellOutcome::InfraFailure`], not an error.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]. What the store kept before the error
    /// stays kept.
    pub fn run(
        &mut self,
        select: &dyn Fn(usize) -> bool,
        store: &mut dyn CellStore,
    ) -> Result<CellRun, PipelineError> {
        let count = self.schedules.len();
        let owned: Vec<(usize, usize, usize)> = (0..self.config.population.len())
            .flat_map(|f| (0..count).map(move |s| (f * count + s, f, s)))
            .filter(|&(index, _, _)| select(index))
            .collect();
        let mut run = CellRun::default();
        self.resolve_goldens(&owned, store, &mut run)?;
        self.resolve_cells(&owned, store, &mut run)?;
        self.resolve_diagnosis(store, &mut run)?;
        Ok(run)
    }

    /// The shard report of `run`, which selected the cells `shard` owns.
    pub fn shard_report(&self, shard: ShardSpec, run: CellRun) -> ShardReport {
        ShardReport {
            fingerprint: self.fingerprint(),
            shard,
            total_cells: self.total_cells(),
            schedules: self.schedules.iter().map(|s| s.name.clone()).collect(),
            prescreened: self.prescreened.clone(),
            cells: run.cells,
            diagnosis: run.diagnosis,
        }
    }

    /// The campaign report of `cells` and `diagnosis` from one or more
    /// runs, in matrix order.
    pub fn report(&self, cells: Vec<CellResult>, diagnosis: Vec<DiagnosisCheck>) -> CampaignReport {
        CampaignReport {
            schedules: self.schedules.iter().map(|s| s.name.clone()).collect(),
            prescreened: self.prescreened.clone(),
            cells,
            diagnosis,
        }
    }

    /// `f` over `items` on the farm under the pipeline's policy; a
    /// permanent panic is the item's `Err(message)`, a cancellation
    /// fails the whole batch.
    fn map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<Result<R, String>>, PipelineError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let (results, _, _, _) = self.farm.run_map_supervised(items, f, &self.policy);
        results
            .into_iter()
            .map(|(_, result)| match result {
                Ok(value) => Ok(Ok(value)),
                Err(SupervisedError::Panicked(message)) => Ok(Err(message)),
                Err(_) => Err(PipelineError::Cancelled),
            })
            .collect()
    }

    /// Goldens of every schedule the selected cells touch.
    fn resolve_goldens(
        &mut self,
        owned: &[(usize, usize, usize)],
        store: &mut dyn CellStore,
        run: &mut CellRun,
    ) -> Result<(), PipelineError> {
        let mut touched: Vec<usize> = owned.iter().map(|&(_, _, s)| s).collect();
        touched.sort_unstable();
        touched.dedup();
        let (mut missing, mut verify) = (Vec::new(), Vec::new());
        for si in touched {
            let schedule = &self.schedules[si];
            if self.golden.contains_key(&schedule.name) {
                continue;
            }
            match store.golden(schedule).map_err(PipelineError::Store)? {
                Some(hit) => {
                    if hit.verify {
                        verify.push(si);
                    }
                    self.golden.insert(schedule.name.clone(), hit.value);
                }
                None => missing.push(si),
            }
        }
        let (config, schedules) = (&self.config, &self.schedules);
        let simulate = |&si: &usize| run_scenario(&config.soc, &config.plan, &schedules[si]);
        for (&si, result) in missing.iter().zip(self.map(&missing, simulate)?) {
            let name = &schedules[si].name;
            let metrics = match result {
                Ok(Ok(metrics)) if metrics.result.clean() => metrics,
                other => {
                    return Err(PipelineError::Golden(match other {
                        Ok(Ok(m)) => {
                            format!("golden run of '{name}' reported errors: {}", m.result)
                        }
                        Ok(Err(e)) => format!("golden run of '{name}' failed: {e}"),
                        Err(panic) => format!("golden run of '{name}' panicked: {panic}"),
                    }))
                }
            };
            store
                .put_golden(&schedules[si], &metrics)
                .map_err(PipelineError::Store)?;
            self.golden.insert(name.clone(), metrics);
        }
        run.counts.goldens_simulated += missing.len();
        for (&si, result) in verify.iter().zip(self.map(&verify, simulate)?) {
            let name = &schedules[si].name;
            let fresh = result.ok().and_then(Result::ok).map(|m| m.digest());
            run.counts.verified += 1;
            if fresh != Some(self.golden[name].digest()) {
                run.verify_failures.push(format!("golden '{name}'"));
            }
        }
        Ok(())
    }

    /// The selected cells: stored ones taken, missing ones simulated in
    /// the store's batches and kept, hits marked for verification re-run.
    fn resolve_cells(
        &self,
        owned: &[(usize, usize, usize)],
        store: &mut dyn CellStore,
        run: &mut CellRun,
    ) -> Result<(), PipelineError> {
        let (config, schedules) = (&self.config, &self.schedules);
        let result = |fi: usize, si: usize, outcome: CellOutcome| CellResult {
            fault_id: config.population[fi].id(),
            fault_class: config.population[fi].class().to_string(),
            schedule: schedules[si].name.clone(),
            outcome,
        };
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; owned.len()];
        let (mut missing, mut verify) = (Vec::new(), Vec::new());
        for (k, &(index, fi, si)) in owned.iter().enumerate() {
            let fault_id = config.population[fi].id();
            match store
                .cell(index, &fault_id, &schedules[si])
                .map_err(PipelineError::Store)?
            {
                Some(hit) => {
                    if hit.verify {
                        verify.push(k);
                    }
                    outcomes[k] = Some(hit.value);
                }
                None => missing.push(k),
            }
        }
        run.counts.cells_stored += owned.len() - missing.len();
        run.counts.cells_simulated += missing.len();

        let simulate = |&k: &usize| {
            let (_, fi, si) = owned[k];
            let schedule = &schedules[si];
            let golden = &self.golden[&schedule.name];
            run_cell(
                &config.soc,
                &config.plan,
                schedule,
                &config.population[fi],
                golden,
            )
        };
        let outcome_of = |r: Result<CellOutcome, String>| {
            r.unwrap_or_else(|error| CellOutcome::InfraFailure { error })
        };
        for batch in missing.chunks(store.batch().unwrap_or(missing.len()).max(1)) {
            let mut kept = Vec::with_capacity(batch.len());
            for (&k, fresh) in batch.iter().zip(self.map(batch, simulate)?) {
                let (index, fi, si) = owned[k];
                let outcome = outcome_of(fresh);
                kept.push((index, &schedules[si], result(fi, si, outcome.clone())));
                outcomes[k] = Some(outcome);
            }
            store.put_cells(&kept).map_err(PipelineError::Store)?;
        }
        for (&k, fresh) in verify.iter().zip(self.map(&verify, simulate)?) {
            run.counts.verified += 1;
            if outcomes[k] != Some(outcome_of(fresh)) {
                let (_, fi, si) = owned[k];
                let (fault, schedule) = (config.population[fi].id(), &schedules[si].name);
                run.verify_failures
                    .push(format!("cell {fault} x '{schedule}'"));
            }
        }
        run.cells = owned
            .iter()
            .zip(outcomes)
            .map(|(&(index, fi, si), o)| (index, result(fi, si, o.expect("every cell resolved"))))
            .collect();
        Ok(())
    }

    /// Diagnosis of the scan faults detected within the selected cells,
    /// in population order. Over a set of shards the union is exactly
    /// the unsharded set: a fault is detected somewhere iff some shard
    /// owns a detected cell for it.
    fn resolve_diagnosis(
        &self,
        store: &mut dyn CellStore,
        run: &mut CellRun,
    ) -> Result<(), PipelineError> {
        if !self.config.diagnosis {
            return Ok(());
        }
        let detected: Vec<(String, WrappedCore, StuckCell)> = self
            .config
            .population
            .iter()
            .filter_map(|f| match f {
                FaultSpec::ScanCell { core, cell } => {
                    let id = f.id();
                    let hit = |(_, r): &(usize, CellResult)| {
                        r.fault_id == id && matches!(r.outcome, CellOutcome::Detected { .. })
                    };
                    run.cells.iter().any(hit).then_some((id, *core, *cell))
                }
                _ => None,
            })
            .collect();
        let mut checks: Vec<Option<DiagnosisCheck>> = vec![None; detected.len()];
        let mut missing = Vec::new();
        for (k, (id, _, _)) in detected.iter().enumerate() {
            checks[k] = store.diagnosis(id).map_err(PipelineError::Store)?;
            if checks[k].is_none() {
                missing.push(k);
            }
        }
        run.counts.diagnoses_stored += detected.len() - missing.len();
        run.counts.diagnoses_simulated += missing.len();

        let diagnose = |&k: &usize| {
            let (_, core, cell) = &detected[k];
            diagnose_scan_fault(&self.config, *core, *cell)
        };
        for batch in missing.chunks(store.batch().unwrap_or(missing.len()).max(1)) {
            let fresh = self
                .map(batch, diagnose)?
                .into_iter()
                .map(|r| {
                    r.map_err(|p| PipelineError::Diagnosis(format!("diagnosis panicked: {p}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            store.put_diagnoses(&fresh).map_err(PipelineError::Store)?;
            for (&k, check) in batch.iter().zip(fresh) {
                checks[k] = Some(check);
            }
        }
        run.diagnosis = checks
            .into_iter()
            .map(|c| c.expect("every diagnosis resolved"))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{generate, PopulationSpec};

    fn tiny_config() -> CampaignConfig {
        let mut soc = tve_soc::SocConfig::small();
        soc.memory_words = 64;
        let spec = PopulationSpec {
            scan_cells_per_core: 1,
            memory_faults: 1,
            infrastructure: false,
            ..PopulationSpec::default()
        };
        let population = generate(&spec, &soc);
        let schedules = tve_soc::paper_schedules()[..2].to_vec();
        CampaignConfig::new(soc, tve_soc::SocTestPlan::small(), schedules, population)
    }

    /// An in-memory store: what it holds is served (with a verify
    /// flag), what the pipeline keeps is recorded.
    #[derive(Default)]
    struct MapStore {
        goldens: BTreeMap<String, ScenarioMetrics>,
        cells: BTreeMap<usize, CellOutcome>,
        diagnoses: BTreeMap<String, DiagnosisCheck>,
        verify: bool,
    }

    impl CellStore for MapStore {
        fn golden(&mut self, schedule: &Schedule) -> Result<Option<Hit<ScenarioMetrics>>, String> {
            Ok(self.goldens.get(&schedule.name).map(|m| Hit {
                value: m.clone(),
                verify: self.verify,
            }))
        }
        fn put_golden(
            &mut self,
            schedule: &Schedule,
            metrics: &ScenarioMetrics,
        ) -> Result<(), String> {
            self.goldens.insert(schedule.name.clone(), metrics.clone());
            Ok(())
        }
        fn cell(
            &mut self,
            index: usize,
            _: &str,
            _: &Schedule,
        ) -> Result<Option<Hit<CellOutcome>>, String> {
            Ok(self.cells.get(&index).map(|o| Hit {
                value: o.clone(),
                verify: self.verify,
            }))
        }
        fn put_cells(&mut self, cells: &[(usize, &Schedule, CellResult)]) -> Result<(), String> {
            for (index, _, cell) in cells {
                self.cells.insert(*index, cell.outcome.clone());
            }
            Ok(())
        }
        fn diagnosis(&mut self, fault_id: &str) -> Result<Option<DiagnosisCheck>, String> {
            Ok(self.diagnoses.get(fault_id).cloned())
        }
        fn put_diagnoses(&mut self, checks: &[DiagnosisCheck]) -> Result<(), String> {
            for check in checks {
                self.diagnoses.insert(check.fault_id.clone(), check.clone());
            }
            Ok(())
        }
    }

    fn shard_json(config: &CampaignConfig, store: &mut dyn CellStore) -> (String, CellRun) {
        let farm = Farm::with_workers(2);
        let mut pipeline = CellPipeline::new(config, &farm);
        let run = pipeline.run(&|_| true, store).expect("tiny campaign runs");
        let json = pipeline
            .shard_report(ShardSpec::full(), run.clone())
            .to_json();
        (json, run)
    }

    #[test]
    fn prefilled_store_changes_counts_never_bytes() {
        let config = tiny_config();
        let (plain, plain_run) = shard_json(&config, &mut NoStore);
        let mut full = MapStore::default();
        let (recorded, _) = shard_json(&config, &mut full);
        assert_eq!(recorded, plain, "a recording store changed the artifact");
        let (goldens, cells, diagnoses) =
            (full.goldens.len(), full.cells.len(), full.diagnoses.len());
        assert_eq!(goldens, 2);
        assert_eq!(cells, config.population.len() * 2);
        assert!(diagnoses > 0, "the tiny campaign must exercise diagnosis");
        assert_eq!(
            plain_run.counts,
            CellCounts {
                goldens_simulated: goldens,
                cells_simulated: cells,
                diagnoses_simulated: diagnoses,
                ..CellCounts::default()
            }
        );

        // Keep one golden, every other cell and one diagnosis.
        let mut partial = MapStore::default();
        partial
            .goldens
            .extend(full.goldens.clone().into_iter().take(1));
        partial
            .cells
            .extend(full.cells.clone().into_iter().step_by(2));
        partial
            .diagnoses
            .extend(full.diagnoses.clone().into_iter().take(1));
        let kept_cells = partial.cells.len();
        let (json, run) = shard_json(&config, &mut partial);
        assert_eq!(json, plain, "a pre-filled store changed the artifact");
        assert_eq!(
            run.counts,
            CellCounts {
                goldens_simulated: goldens - 1,
                cells_simulated: cells - kept_cells,
                cells_stored: kept_cells,
                diagnoses_simulated: diagnoses - 1,
                diagnoses_stored: 1,
                verified: 0,
            }
        );
        assert_eq!(partial.cells.len(), cells, "the store kept every new cell");
    }

    #[test]
    fn verified_hits_are_rerun_and_divergence_is_named() {
        let config = tiny_config();
        let mut store = MapStore::default();
        let (plain, _) = shard_json(&config, &mut store);
        store.verify = true;
        let (json, run) = shard_json(&config, &mut store);
        assert_eq!(json, plain);
        assert_eq!(run.counts.verified, 2 + config.population.len() * 2);
        assert!(run.verify_failures.is_empty(), "{:?}", run.verify_failures);

        // A corrupted entry is served as stored but named as divergent.
        store.cells.insert(0, CellOutcome::Escape);
        let (_, run) = shard_json(&config, &mut store);
        assert_eq!(run.verify_failures.len(), 1, "{:?}", run.verify_failures);
        assert!(
            run.verify_failures[0].starts_with("cell "),
            "{:?}",
            run.verify_failures
        );
    }
}
