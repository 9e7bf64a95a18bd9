//! Seeded input generation. Everything the program under test receives
//! is derived here from the benchmark seed, so one seed always yields the
//! same fault population and the same request sequences.

use tve_campaign::PopulationSpec;

/// splitmix64: small, seedable, and good enough to spread seeds.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent sub-seed for `stream` under `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Sampled scan cells per core and memory faults in `campaign_small`.
pub const CAMPAIGN_FAULTS: usize = 16;

/// The fault population of `campaign_small` for a benchmark seed: the
/// library's generator with a seed-derived population seed.
pub fn campaign_population(seed: u64) -> PopulationSpec {
    PopulationSpec {
        seed: derive(seed, 0xCA),
        scan_cells_per_core: CAMPAIGN_FAULTS,
        memory_faults: CAMPAIGN_FAULTS,
        ..PopulationSpec::default()
    }
}

/// Client connections driving the daemon in `serve_mixed`.
pub const SERVE_CLIENTS: usize = 2;
/// Epochs per pass; each ends with every client's write.
pub const EPOCHS_PER_PASS: usize = 4;
/// Cache-hit reads per client per epoch.
///
/// The traffic mix is an assumption, not a measurement: no record of the
/// daemon's real traffic exists. The repository's own clients (CI's
/// serve-smoke job, the walkthroughs in EXPERIMENTS.md) fill each key
/// once and re-read it once or twice, while `serve_mixed` models a
/// read-heavy session that re-reads cached results many times. With 12
/// hits against 3 misses, 1 invalidation and 1 resubmit per client and
/// epoch, the median request is a cache hit, so `job_p50_ms` on this
/// workload is the round trip of a hit; misses show in `miss_p50_ms`,
/// `sim_cpu_s` and `run_wall_s`.
pub const HITS_PER_EPOCH: usize = 12;

/// The 1-based paper schedules a client submits. Client 0 uses the two
/// schedules that contain test 2 but not test 3, client 1 the two that
/// contain test 3 but not test 2, so each client's invalidation edit
/// evicts only its own schedule entries.
pub fn client_schedules(client: usize) -> [usize; 2] {
    if client == 0 {
        [1, 3]
    } else {
        [2, 4]
    }
}

/// One request of a serve client, with the cache state it must meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A schedule job on the `paper` preset at 2622 memory words with the
    /// given plan seed; `edit` overrides the client's pattern-count field.
    Schedule {
        index: usize,
        plan_seed: u64,
        edit: Option<u64>,
        hit: bool,
    },
    /// A bounds job over the client's two schedules with the given plan seed.
    Bounds { plan_seed: u64, hit: bool },
    /// An invalidation of the client's pattern-count field.
    Invalidate { edit: u64 },
}

impl Request {
    /// Whether the daemon must answer from its cache.
    pub fn expects_hit(&self) -> bool {
        matches!(
            self,
            Request::Schedule { hit: true, .. } | Request::Bounds { hit: true, .. }
        )
    }

    /// Whether the daemon must compute (and cache) the answer.
    pub fn expects_miss(&self) -> bool {
        matches!(
            self,
            Request::Schedule { hit: false, .. } | Request::Bounds { hit: false, .. }
        )
    }
}

/// One client's share of one epoch: concurrent reads, then (after a
/// barrier) the write phase, then another barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    pub reads: Vec<Request>,
    pub writes: Vec<Request>,
}

/// The request sequence of `client` in pass `pass` under `seed`.
///
/// Every epoch fills one fresh key per client schedule and one fresh
/// bounds key, reads them back [`HITS_PER_EPOCH`] times in seeded order,
/// and ends with an invalidation plus a resubmit of the edited plan.
/// Plan seeds carry the client number in their low bit, so the two
/// clients' key sets are disjoint.
pub fn serve_epochs(seed: u64, client: usize, pass: usize) -> Vec<Epoch> {
    let mut rng = SplitMix::new(derive(seed, ((pass as u64) << 8) | client as u64));
    // Below 2^53, so the seed survives the protocol's JSON numbers.
    let fresh = |rng: &mut SplitMix| ((rng.next_u64() >> 12) << 1) | client as u64;
    let schedules = client_schedules(client);
    (0..EPOCHS_PER_PASS)
        .map(|_| {
            let mut pending: Vec<Request> = schedules
                .iter()
                .map(|&index| Request::Schedule {
                    index,
                    plan_seed: fresh(&mut rng),
                    edit: None,
                    hit: false,
                })
                .collect();
            pending.push(Request::Bounds {
                plan_seed: fresh(&mut rng),
                hit: false,
            });
            let mut filled: Vec<Request> = Vec::new();
            let mut reads = Vec::new();
            let mut hits = 0;
            while !pending.is_empty() || hits < HITS_PER_EPOCH {
                // Fill while keys are pending; otherwise, and at random
                // once something is filled, read a filled key back.
                let fill = filled.is_empty()
                    || (hits == HITS_PER_EPOCH)
                    || (!pending.is_empty() && rng.below(4) == 0);
                if fill {
                    let request = pending.remove(rng.below(pending.len()));
                    filled.push(request.clone());
                    reads.push(request);
                } else {
                    let hit = match filled[rng.below(filled.len())].clone() {
                        Request::Schedule {
                            index,
                            plan_seed,
                            edit,
                            ..
                        } => Request::Schedule {
                            index,
                            plan_seed,
                            edit,
                            hit: true,
                        },
                        Request::Bounds { plan_seed, .. } => Request::Bounds {
                            plan_seed,
                            hit: true,
                        },
                        Request::Invalidate { .. } => unreachable!("writes are never filled"),
                    };
                    reads.push(hit);
                    hits += 1;
                }
            }
            let edit = 19_000 + rng.below(1000) as u64;
            let writes = vec![
                Request::Invalidate { edit },
                Request::Schedule {
                    index: schedules[rng.below(2)],
                    plan_seed: fresh(&mut rng),
                    edit: Some(edit),
                    hit: false,
                },
            ];
            Epoch { reads, writes }
        })
        .collect()
}

/// Cache entries the daemon evicts in one pass of the `clients`' epochs,
/// given what was cached before it (`carried`: resubmitted entries of
/// the previous write phase still cached). Returns `(evicted, carried
/// after the pass)`.
///
/// Each client's invalidation evicts its own schedule entries (its edit
/// touches one test only its schedules run) and every bounds entry
/// (bounds entries depend on all seven tests). The write phase is fenced
/// by barriers, so the total is exact whatever order the two clients'
/// writes interleave in.
pub fn serve_evictions(clients: &[Vec<Epoch>], carried: u64) -> (u64, u64) {
    let mut evicted = 0;
    let mut carried = carried;
    for e in 0..EPOCHS_PER_PASS {
        let fills = clients
            .iter()
            .flat_map(|epochs| &epochs[e].reads)
            .filter(|r| r.expects_miss())
            .count() as u64;
        evicted += fills + carried;
        // Each client's resubmit survives its epoch's write phase.
        carried = clients.len() as u64;
    }
    (evicted, carried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys(epochs: &[Epoch]) -> Vec<(bool, u64)> {
        epochs
            .iter()
            .flat_map(|e| e.reads.iter().chain(&e.writes))
            .filter_map(|r| match r {
                Request::Schedule { plan_seed, .. } => Some((true, *plan_seed)),
                Request::Bounds { plan_seed, .. } => Some((false, *plan_seed)),
                Request::Invalidate { .. } => None,
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_requests() {
        for client in 0..SERVE_CLIENTS {
            assert_eq!(serve_epochs(7, client, 3), serve_epochs(7, client, 3));
        }
        assert_ne!(serve_epochs(7, 0, 0), serve_epochs(8, 0, 0));
        assert_ne!(serve_epochs(7, 0, 0), serve_epochs(7, 0, 1));
    }

    #[test]
    fn same_seed_gives_the_same_faults() {
        let config = tve_soc::Workload::small().with_mem_words(128).build().0;
        let a = tve_campaign::generate(&campaign_population(11), &config);
        let b = tve_campaign::generate(&campaign_population(11), &config);
        let c = tve_campaign::generate(&campaign_population(12), &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c);
    }

    #[test]
    fn client_key_sets_are_disjoint() {
        for seed in 0..8 {
            let mut seen: Vec<HashSet<(bool, u64)>> = Vec::new();
            for client in 0..SERVE_CLIENTS {
                let mut set = HashSet::new();
                for pass in 0..3 {
                    set.extend(keys(&serve_epochs(seed, client, pass)));
                }
                seen.push(set);
            }
            assert!(seen[0].is_disjoint(&seen[1]), "seed {seed}");
        }
    }

    #[test]
    fn every_hit_reads_a_key_filled_earlier_in_its_epoch() {
        for client in 0..SERVE_CLIENTS {
            for epoch in serve_epochs(3, client, 0) {
                let mut filled = HashSet::new();
                let (mut hits, mut misses) = (0, 0);
                for r in &epoch.reads {
                    let key = keys(&[Epoch {
                        reads: vec![r.clone()],
                        writes: vec![],
                    }])[0];
                    if r.expects_hit() {
                        assert!(filled.contains(&key), "hit before fill: {r:?}");
                        hits += 1;
                    } else {
                        assert!(filled.insert(key), "key filled twice: {r:?}");
                        misses += 1;
                    }
                }
                assert_eq!((hits, misses), (HITS_PER_EPOCH, 3));
                assert!(matches!(epoch.writes[0], Request::Invalidate { .. }));
                assert!(epoch.writes[1].expects_miss());
            }
        }
    }

    #[test]
    fn evictions_count_fills_and_carried_resubmits() {
        let pass: Vec<Vec<Epoch>> = (0..SERVE_CLIENTS).map(|c| serve_epochs(1, c, 0)).collect();
        // First pass: 3 fills per client per epoch, plus the two resubmits
        // of the previous epoch from the second epoch on.
        let (evicted, carried) = serve_evictions(&pass, 0);
        assert_eq!(carried, 2);
        assert_eq!(
            evicted,
            (EPOCHS_PER_PASS as u64) * 6 + (EPOCHS_PER_PASS as u64 - 1) * 2
        );
        let (evicted, _) = serve_evictions(&pass, carried);
        assert_eq!(evicted, (EPOCHS_PER_PASS as u64) * 8);
    }
}
