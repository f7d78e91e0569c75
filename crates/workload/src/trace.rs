//! Request traces: records, synthesis, and the paper's region presets.
//!
//! A trace is an ordered sequence of [`Request`]s. Synthesis follows §4.1:
//! each request is assigned to a PoP with probability proportional to metro
//! population, lands on a uniformly random leaf of that PoP's access tree,
//! and asks for an object drawn from the (possibly spatially skewed)
//! Zipf popularity distribution. Object ids are global popularity ranks
//! (object 0 is globally most popular).

use crate::sizes::SizeModel;
use crate::skew::SpatialModel;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One content request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// PoP where the request enters the network.
    pub pop: u16,
    /// Leaf index within the PoP's access tree (0-based).
    pub leaf: u16,
    /// Requested object (global popularity rank).
    pub object: u32,
}

/// Temporal locality of the request stream at each leaf.
///
/// Real CDN edge logs are much more repetitive than an independent-draws
/// (IRM) Zipf stream with the same fitted exponent: client sessions and
/// regional bursts re-reference recently requested objects. The Zipf fit of
/// Figure 1 / Table 2 constrains only the *marginal* popularity, so the
/// synthesizer models locality separately: with probability `q` a request
/// replays one of the last `window` objects requested at the same leaf
/// (uniformly), and otherwise draws fresh from the Zipf marginal. `q` is
/// calibrated once against the paper's published design gaps (see
/// EXPERIMENTS.md); `q = 0` recovers pure IRM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Locality {
    /// Probability that a request re-references the leaf's recent history.
    pub q: f64,
    /// Per-leaf history length (in requests).
    pub window: usize,
}

/// Parameters for synthesizing a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of requests.
    pub requests: usize,
    /// Universe size `O`.
    pub objects: u32,
    /// Zipf exponent α.
    pub alpha: f64,
    /// Spatial skew in `[0, 1]` (§5.1); 0 = homogeneous.
    pub skew: f64,
    /// Temporal locality; `None` = pure IRM.
    pub locality: Option<Locality>,
    /// Object size model.
    pub sizes: SizeModel,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A small default suitable for tests and the quickstart example.
    pub fn small() -> Self {
        Self {
            requests: 50_000,
            objects: 5_000,
            alpha: 1.0,
            skew: 0.0,
            locality: None,
            sizes: SizeModel::Unit,
            seed: 42,
        }
    }
}

impl Locality {
    /// The locality level calibrated against the paper's published design
    /// gaps (Table 3 / Figure 6; the calibration run is recorded in
    /// EXPERIMENTS.md).
    pub fn cdn_default() -> Self {
        Self {
            q: 0.65,
            window: 256,
        }
    }
}

/// The paper's three CDN vantage points (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Region {
    /// US log: 1.1M requests, best-fit α = 0.99.
    Us,
    /// Europe log: 3.1M requests, best-fit α = 0.92.
    Europe,
    /// Asia log: 1.8M requests, best-fit α = 1.04 (used for the §4 baseline).
    Asia,
}

impl Region {
    /// Region name as printed in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Region::Us => "US",
            Region::Europe => "Europe",
            Region::Asia => "Asia",
        }
    }

    /// Paper-reported request count for the daily log.
    pub fn paper_requests(self) -> usize {
        match self {
            Region::Us => 1_100_000,
            Region::Europe => 3_100_000,
            Region::Asia => 1_800_000,
        }
    }

    /// Paper-reported best-fit Zipf exponent (Table 2).
    pub fn paper_alpha(self) -> f64 {
        match self {
            Region::Us => 0.99,
            Region::Europe => 0.92,
            Region::Asia => 1.04,
        }
    }

    /// All three regions in Table 2 order.
    pub fn all() -> [Region; 3] {
        [Region::Us, Region::Europe, Region::Asia]
    }

    /// A synthesis config for this region, scaled by `scale ∈ (0, 1]` to
    /// fit the experiment budget. The request:object ratio (200:1) and the
    /// locality level are calibrated once against the paper's published
    /// design gaps — the ratio keeps per-router caches capacity-bound at
    /// the paper's F = 5%, which the budget-normalization results (Figure
    /// 10, Table 4) depend on; see EXPERIMENTS.md.
    pub fn config(self, scale: f64) -> TraceConfig {
        assert!(scale > 0.0 && scale <= 1.0);
        let requests = ((self.paper_requests() as f64) * scale).round() as usize;
        TraceConfig {
            requests,
            objects: ((requests as f64) / 200.0).round().max(100.0) as u32,
            alpha: self.paper_alpha(),
            skew: 0.0,
            locality: Some(Locality::cdn_default()),
            sizes: SizeModel::Unit,
            seed: 0x1c_0de + self as u64,
        }
    }
}

/// A deterministic streaming generator of synthesized requests.
///
/// This is [`Trace::synthesize`]'s generation loop lifted into an
/// iterator: the same config, populations, and leaf count produce the
/// same request sequence *by construction* (`synthesize` simply collects
/// this iterator). Memory is O(PoPs × leaves × locality-window) for the
/// per-leaf history ring buffers — independent of trace length — so a
/// full SCALE=1.0 workload can be fed straight into
/// `Simulator::run_streamed` without ever materializing the request
/// vector.
#[derive(Debug, Clone)]
pub struct TraceIter {
    rng: StdRng,
    zipf: Zipf,
    spatial: SpatialModel,
    /// Cumulative population weights for PoP selection.
    cum: Vec<f64>,
    leaves_per_pop: u32,
    loc_q: f64,
    loc_window: usize,
    /// Per-leaf recent-history ring buffers for the locality component.
    history: Vec<Vec<u32>>,
    hist_pos: Vec<usize>,
    remaining: usize,
}

impl TraceIter {
    /// A generator over a network with the given PoP populations and
    /// leaves per access tree. Validates the same invariants as
    /// [`Trace::synthesize`].
    pub fn new(config: &TraceConfig, populations: &[u64], leaves_per_pop: u32) -> Self {
        assert!(!populations.is_empty());
        assert!(leaves_per_pop >= 1);
        assert!(
            populations.len() <= u16::MAX as usize,
            "too many PoPs for u16"
        );
        assert!(leaves_per_pop <= u16::MAX as u32, "too many leaves for u16");
        let rng = StdRng::seed_from_u64(config.seed);
        let zipf = Zipf::new(config.objects as usize, config.alpha);
        let spatial = SpatialModel::new(
            config.objects,
            populations.len() as u32,
            config.skew,
            config.seed ^ 0x5b5b_5b5b,
        );
        let mut cum: Vec<f64> = Vec::with_capacity(populations.len());
        let total: u64 = populations.iter().sum();
        assert!(total > 0, "zero total population");
        let mut acc = 0.0;
        for &p in populations {
            acc += p as f64 / total as f64;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let (loc_q, loc_window) = match config.locality {
            Some(l) => {
                assert!((0.0..=1.0).contains(&l.q), "locality q must be in [0,1]");
                assert!(l.window >= 1, "locality window must be >= 1");
                (l.q, l.window)
            }
            None => (0.0, 1),
        };
        let n_leaves = populations.len() * leaves_per_pop as usize;
        let history: Vec<Vec<u32>> = vec![Vec::new(); if loc_q > 0.0 { n_leaves } else { 0 }];
        let hist_pos: Vec<usize> = vec![0; history.len()];
        Self {
            rng,
            zipf,
            spatial,
            cum,
            leaves_per_pop,
            loc_q,
            loc_window,
            history,
            hist_pos,
            remaining: config.requests,
        }
    }
}

impl Iterator for TraceIter {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let u: f64 = self.rng.gen();
        let pop = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1) as u16;
        let leaf = self.rng.gen_range(0..self.leaves_per_pop) as u16;
        let leaf_slot = pop as usize * self.leaves_per_pop as usize + leaf as usize;
        let object = if self.loc_q > 0.0
            && !self.history[leaf_slot].is_empty()
            && self.rng.gen::<f64>() < self.loc_q
        {
            // Replay a recent request from this leaf.
            let h = &self.history[leaf_slot];
            h[self.rng.gen_range(0..h.len())]
        } else {
            let rank = self.zipf.sample(&mut self.rng) as u32;
            self.spatial.object_for_rank(pop as u32, rank)
        };
        if self.loc_q > 0.0 {
            let h = &mut self.history[leaf_slot];
            if h.len() < self.loc_window {
                h.push(object);
            } else {
                let p = &mut self.hist_pos[leaf_slot];
                h[*p] = object;
                *p = (*p + 1) % self.loc_window;
            }
        }
        Some(Request { pop, leaf, object })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceIter {}

/// A synthesized (or loaded) request trace plus per-object sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// The synthesis parameters (informational for loaded traces).
    pub config: TraceConfig,
    /// The request sequence.
    pub requests: Vec<Request>,
    /// Size of each object, indexed by object id.
    pub object_sizes: Vec<u32>,
}

impl Trace {
    /// Synthesizes a trace over a network with the given PoP populations and
    /// leaves per access tree. Equivalent to collecting [`TraceIter`] —
    /// which is exactly what it does, so the streaming and materialized
    /// paths cannot drift apart.
    pub fn synthesize(config: TraceConfig, populations: &[u64], leaves_per_pop: u32) -> Self {
        let requests: Vec<Request> = TraceIter::new(&config, populations, leaves_per_pop).collect();
        let object_sizes = config.sizes.generate(config.objects, config.seed ^ 0xa5a5);
        Self {
            config,
            requests,
            object_sizes,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-object request counts (rank-frequency data for fitting).
    pub fn object_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.config.objects as usize];
        for r in &self.requests {
            counts[r.object as usize] += 1;
        }
        counts
    }

    /// Writes the trace as CSV (`pop,leaf,object` lines with a header).
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "pop,leaf,object")?;
        for r in &self.requests {
            writeln!(w, "{},{},{}", r.pop, r.leaf, r.object)?;
        }
        Ok(())
    }

    /// Reads a CSV trace written by [`Trace::write_csv`]. Sizes default to
    /// unit; `config` records only what can be inferred.
    pub fn read_csv<R: BufRead>(r: R) -> std::io::Result<Self> {
        let mut requests = Vec::new();
        let mut max_object = 0u32;
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            if i == 0 && line.starts_with("pop") {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split(',');
            let parse_err =
                || std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad line {i}"));
            let pop = it
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let leaf = it
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            let object: u32 = it
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(parse_err)?;
            max_object = max_object.max(object);
            requests.push(Request { pop, leaf, object });
        }
        let objects = max_object + 1;
        Ok(Self {
            config: TraceConfig {
                requests: requests.len(),
                objects,
                alpha: f64::NAN,
                skew: f64::NAN,
                locality: None,
                sizes: SizeModel::Unit,
                seed: 0,
            },
            requests,
            object_sizes: vec![1; objects as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pops() -> Vec<u64> {
        vec![1_000_000, 2_000_000, 7_000_000]
    }

    #[test]
    fn synthesis_basics() {
        let t = Trace::synthesize(TraceConfig::small(), &pops(), 8);
        assert_eq!(t.len(), 50_000);
        assert!(t.requests.iter().all(|r| r.pop < 3 && r.leaf < 8));
        assert!(t.requests.iter().all(|r| r.object < t.config.objects));
        assert_eq!(t.object_sizes.len(), t.config.objects as usize);
    }

    #[test]
    fn pop_assignment_follows_population() {
        let t = Trace::synthesize(TraceConfig::small(), &pops(), 4);
        let mut counts = [0usize; 3];
        for r in &t.requests {
            counts[r.pop as usize] += 1;
        }
        let n = t.len() as f64;
        assert!((counts[0] as f64 / n - 0.1).abs() < 0.01);
        assert!((counts[2] as f64 / n - 0.7).abs() < 0.01);
    }

    #[test]
    fn leaves_roughly_uniform() {
        let t = Trace::synthesize(TraceConfig::small(), &pops(), 4);
        let mut counts = [0usize; 4];
        for r in &t.requests {
            counts[r.leaf as usize] += 1;
        }
        let n = t.len() as f64;
        for c in counts {
            assert!((c as f64 / n - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn object_zero_is_most_popular_without_skew() {
        let t = Trace::synthesize(TraceConfig::small(), &pops(), 4);
        let counts = t.object_counts();
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Trace::synthesize(TraceConfig::small(), &pops(), 4);
        let b = Trace::synthesize(TraceConfig::small(), &pops(), 4);
        assert_eq!(a.requests, b.requests);
        let mut cfg = TraceConfig::small();
        cfg.seed += 1;
        let c = Trace::synthesize(cfg, &pops(), 4);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn csv_roundtrip() {
        let mut cfg = TraceConfig::small();
        cfg.requests = 500;
        let t = Trace::synthesize(cfg, &pops(), 4);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t.requests, back.requests);
    }

    #[test]
    fn region_presets_match_table2() {
        assert_eq!(Region::Us.paper_alpha(), 0.99);
        assert_eq!(Region::Europe.paper_alpha(), 0.92);
        assert_eq!(Region::Asia.paper_alpha(), 1.04);
        let cfg = Region::Asia.config(0.1);
        assert_eq!(cfg.requests, 180_000);
        assert!(cfg.objects > 0);
    }

    #[test]
    fn locality_raises_leaf_repeat_rate() {
        let mut base = TraceConfig::small();
        base.objects = 50_000; // large universe so IRM repeats are rare
        let mut local = base.clone();
        local.locality = Some(Locality {
            q: 0.6,
            window: 128,
        });

        fn leaf_repeat_rate(t: &Trace, leaves: u16) -> f64 {
            let mut seen: Vec<std::collections::HashSet<u32>> =
                vec![Default::default(); 3 * leaves as usize];
            let mut repeats = 0usize;
            for r in &t.requests {
                let slot = r.pop as usize * leaves as usize + r.leaf as usize;
                if !seen[slot].insert(r.object) {
                    repeats += 1;
                }
            }
            repeats as f64 / t.len() as f64
        }

        let t_irm = Trace::synthesize(base, &pops(), 4);
        let t_loc = Trace::synthesize(local, &pops(), 4);
        let r_irm = leaf_repeat_rate(&t_irm, 4);
        let r_loc = leaf_repeat_rate(&t_loc, 4);
        assert!(
            r_loc > r_irm + 0.15,
            "locality should raise repeats: irm {r_irm:.3} vs loc {r_loc:.3}"
        );
    }

    #[test]
    fn replay_at_trace_head_samples_only_the_emitted_prefix() {
        // Pins the stream-head re-reference contract: while a leaf has
        // emitted fewer than `window` requests, the replay draw must
        // sample uniformly from the *actual* prefix, never from the
        // configured window — an index into unwritten ring slots would
        // replay objects the leaf never requested (or panic on an empty
        // range at the very head). With q = 1.0 every request after a
        // leaf's first replays that leaf's history, so each object must
        // already appear in that leaf's emitted prefix.
        let mut cfg = TraceConfig::small();
        cfg.requests = 2_000;
        cfg.objects = 100_000; // fresh draws would scatter widely
        cfg.locality = Some(Locality {
            q: 1.0,
            window: 256,
        });
        let leaves = 4u32;
        let mut seen: Vec<std::collections::HashSet<u32>> = vec![Default::default(); 3 * 4];
        for (i, r) in TraceIter::new(&cfg, &pops(), leaves).enumerate() {
            let slot = r.pop as usize * leaves as usize + r.leaf as usize;
            assert!(
                seen[slot].is_empty() || seen[slot].contains(&r.object),
                "request {i} replayed object {} absent from leaf {slot}'s prefix",
                r.object
            );
            seen[slot].insert(r.object);
        }
        // Each touched leaf replays exactly its own first draw forever.
        assert!(seen.iter().filter(|s| !s.is_empty()).all(|s| s.len() == 1));
    }

    #[test]
    fn first_window_draws_are_pinned() {
        // The head of the localized stream, frozen: any change to how the
        // short-prefix replay draws consume the RNG shows up here before
        // it silently shifts every figure.
        let mut cfg = TraceConfig::small();
        cfg.requests = 8;
        cfg.objects = 1_000;
        cfg.seed = 7;
        cfg.locality = Some(Locality { q: 0.9, window: 4 });
        let objs: Vec<u32> = TraceIter::new(&cfg, &[1], 1).map(|r| r.object).collect();
        assert_eq!(objs.len(), 8);
        // First draw is fresh; afterwards objects only come from the
        // prefix or fresh Zipf draws — and the exact sequence is stable.
        let expect: Vec<u32> = {
            // Reference reimplementation of the documented draw order.
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let zipf = crate::zipf::Zipf::new(cfg.objects as usize, cfg.alpha);
            let spatial =
                crate::skew::SpatialModel::new(cfg.objects, 1, cfg.skew, cfg.seed ^ 0x5b5b_5b5b);
            let mut hist: Vec<u32> = Vec::new();
            let mut pos = 0usize;
            let mut out = Vec::new();
            for _ in 0..cfg.requests {
                let _u: f64 = rng.gen();
                let _leaf = rng.gen_range(0..1u32);
                let object = if !hist.is_empty() && rng.gen::<f64>() < 0.9 {
                    hist[rng.gen_range(0..hist.len())]
                } else {
                    let rank = zipf.sample(&mut rng) as u32;
                    spatial.object_for_rank(0, rank)
                };
                if hist.len() < 4 {
                    hist.push(object);
                } else {
                    hist[pos] = object;
                    pos = (pos + 1) % 4;
                }
                out.push(object);
            }
            out
        };
        assert_eq!(objs, expect);
    }

    #[test]
    fn locality_preserves_zipf_marginal() {
        // The Table 2 validation path: a localized trace must still fit a
        // Zipf exponent close to the configured one.
        let mut cfg = TraceConfig::small();
        cfg.requests = 200_000;
        cfg.objects = 10_000;
        cfg.alpha = 1.04;
        cfg.locality = Some(Locality::cdn_default());
        let t = Trace::synthesize(cfg, &pops(), 4);
        let fit = crate::fit::fit_zipf(&t.object_counts()).unwrap();
        assert!(
            (fit.alpha_mle - 1.04).abs() < 0.15,
            "marginal drifted: fitted {}",
            fit.alpha_mle
        );
    }

    #[test]
    fn skewed_trace_differs_across_pops() {
        let mut cfg = TraceConfig::small();
        cfg.skew = 1.0;
        let t = Trace::synthesize(cfg, &pops(), 4);
        // With full skew, the globally-ranked object 0 is no longer the top
        // object at every pop.
        let mut per_pop: Vec<std::collections::HashMap<u32, u64>> = vec![Default::default(); 3];
        for r in &t.requests {
            *per_pop[r.pop as usize].entry(r.object).or_insert(0) += 1;
        }
        let tops: Vec<u32> = per_pop
            .iter()
            .map(|m| m.iter().max_by_key(|&(_, &c)| c).map(|(&o, _)| o).unwrap())
            .collect();
        assert!(
            tops.iter().any(|&t| t != tops[0]),
            "expected different top objects per pop, got {tops:?}"
        );
    }
}
