//! List ranking (Appendix: `listrank`).
//!
//! The randomized QSM algorithm: elements are block-distributed;
//! for `4·log₂ p` iterations every active element flips a coin and
//! removes itself from the doubly linked list when it flipped 1 and
//! its successor flipped 0, folding its weight into its predecessor
//! (expected 1/4 of elements leave per iteration, shrinking the list
//! geometrically by 3/4). The ~`n/p`-sized remainder is shipped to
//! processor 0, ranked sequentially, and the eliminated elements are
//! re-expanded in reverse iteration order. `O(g·n/p)` time with
//! `O(log p)` iterations whp.
//!
//! Each iteration uses exactly four phases (flip generation, load
//! successor flip, splice + predecessor-weight fetch, weight
//! write-back), matching the paper's `4 + 16·log p` phase count for
//! the contraction stage.
//!
//! Ranks are distances to the tail: `rank[tail] = 0`,
//! `rank[e] = rank[succ[e]] + 1` on the original list.

use qsm_core::{Ctx, EffectiveCosts, GetTicket, Layout, Machine, RunResult, Word};
use qsm_models::chernoff::binomial_upper_bound;
use rand::Rng;

use crate::analysis::{Prediction, WHP_DELTA};
use crate::collectives::Gather;
use crate::gen::NIL;
use crate::seq;

/// Setup phases before measurement (registration + input
/// distribution).
pub const SETUP_PHASES: usize = 2;

/// The paper's iteration-count constant: `c · log₂ p` with `c = 4`.
pub const ITER_C: usize = 4;

/// Contraction iterations for a machine of `p` processors.
pub fn iterations(p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        ITER_C * (usize::BITS - (p - 1).leading_zeros()) as usize
    }
}

/// Per-iteration traffic measured on one processor (words are 4-byte
/// accounting units).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Active elements at iteration start.
    pub active: u64,
    /// Words of remote get traffic (successor flips + predecessor
    /// weights).
    pub get_words: u64,
    /// Words of remote put traffic (splices + weight write-backs).
    pub put_words: u64,
    /// Words of remote get traffic in the matching expansion
    /// iteration.
    pub expansion_get_words: u64,
}

/// Per-processor outcome of the parallel program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcOutcome {
    /// Per-iteration traffic measurements.
    pub iters: Vec<IterStats>,
    /// Survivors this processor shipped to processor 0.
    pub survivors: u64,
    /// Remote words this processor moved in the finish stage
    /// (survivor shipping; for processor 0 also rank scatter).
    pub finish_words: u64,
}

struct Removal {
    elem: usize,
    succ_at_removal: usize,
    weight_at_removal: u64,
}

/// Redeem a one-element get through `scratch`, which keeps its
/// allocation from one ticket to the next.
fn take_one<T: Word>(ctx: &mut Ctx, ticket: GetTicket<T>, scratch: &mut Vec<T>) -> T {
    scratch.clear();
    ctx.take_into(ticket, scratch);
    scratch[0]
}

/// A candidate of phase B: active element `k` and its successor's flip.
struct Cand {
    k: usize,
    succ: usize,
    flip: FlipSource,
}
enum FlipSource {
    Local(u32),
    Remote(GetTicket<u32>),
}

/// A remover of phase C, waiting for its predecessor's weight.
struct Pending {
    k: usize,
    succ: usize,
    pred: usize,
    weight: u64,
    pred_weight: WeightSource,
}
enum WeightSource {
    Local(u64),
    Remote(GetTicket<u64>),
}

#[allow(clippy::too_many_lines)]
fn program(ctx: &mut Ctx, succ_in: &[u64], pred_in: &[u64], out: &Gather<'_, u64>) -> ProcOutcome {
    let n = succ_in.len();
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    let iters = iterations(p);

    // --- Setup (uncounted). ---
    let s_arr = ctx.register::<u64>("lr.succ", n, Layout::Block);
    let p_arr = ctx.register::<u64>("lr.pred", n, Layout::Block);
    let w_arr = ctx.register::<u64>("lr.weight", n, Layout::Block);
    let f_arr = ctx.register::<u32>("lr.flip", n, Layout::Block);
    let rank_arr = ctx.register::<u64>("lr.rank", n, Layout::Block);
    let cnts = ctx.register::<u64>("lr.counts", p * p, Layout::Block);
    ctx.sync();
    let my = ctx.local_range(&s_arr);
    ctx.local_write(&s_arr, my.start, &succ_in[my.clone()]);
    ctx.local_write(&p_arr, my.start, &pred_in[my.clone()]);
    ctx.local_mut(&w_arr).fill(1);
    ctx.sync();

    let is_local = |idx: usize| my.contains(&idx);
    // Every n-element array shares `my`: global index `idx` of a local
    // element is slot `at(idx)` of its window.
    let at = |idx: usize| idx - my.start;
    let mut active: Vec<usize> = my.clone().collect();
    let mut removed_log: Vec<Vec<Removal>> = Vec::with_capacity(iters);
    let mut iter_stats: Vec<IterStats> = Vec::with_capacity(iters);
    // Kept across iterations and tickets, so that a steady iteration
    // allocates its removal log and nothing else.
    let (mut flips, mut cands, mut pend, mut keep) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut flip_of, mut word_of) = (Vec::with_capacity(1), Vec::with_capacity(1));

    // --- Contraction: 4 phases per iteration. ---
    for _ in 0..iters {
        let mut stats = IterStats { active: active.len() as u64, ..Default::default() };

        // Phase A: flip generation (local writes only).
        flips.clear();
        flips.extend(active.iter().map(|_| ctx.rng().gen_range(0..2u32)));
        let flip_window = ctx.local_mut(&f_arr);
        for (&e, &flip) in active.iter().zip(&flips) {
            flip_window[at(e)] = flip;
        }
        ctx.charge(8 * active.len() as u64); // rng + store per element
        ctx.sync();

        // Phase B: candidates load their successor's flip.
        for (k, &e) in active.iter().enumerate() {
            if flips[k] != 1 {
                continue;
            }
            let sv = ctx.local(&s_arr)[at(e)];
            let pv = ctx.local(&p_arr)[at(e)];
            if sv == NIL || pv == NIL {
                continue; // head and tail never remove themselves
            }
            let succ = sv as usize;
            let flip = if is_local(succ) {
                FlipSource::Local(ctx.local(&f_arr)[at(succ)])
            } else {
                stats.get_words += 1;
                FlipSource::Remote(ctx.get(&f_arr, succ, 1))
            };
            cands.push(Cand { k, succ, flip });
        }
        ctx.charge(4 * active.len() as u64); // pointer loads + tests
        ctx.sync();

        // Phase C: removers splice themselves out and fetch their
        // predecessor's weight.
        for c in cands.drain(..) {
            let succ_flip = match c.flip {
                FlipSource::Local(v) => v,
                FlipSource::Remote(t) => take_one(ctx, t, &mut flip_of),
            };
            if succ_flip != 0 {
                continue;
            }
            let e = active[c.k];
            let pred = ctx.local(&p_arr)[at(e)] as usize;
            let weight = ctx.local(&w_arr)[at(e)];
            let succ = c.succ;
            // Splice: S[pred] = succ, P[succ] = pred.
            if is_local(pred) {
                ctx.local_mut(&s_arr)[at(pred)] = succ as u64;
            } else {
                stats.put_words += 2;
                ctx.put(&s_arr, pred, &[succ as u64]);
            }
            if is_local(succ) {
                ctx.local_mut(&p_arr)[at(succ)] = pred as u64;
            } else {
                stats.put_words += 2;
                ctx.put(&p_arr, succ, &[pred as u64]);
            }
            let pred_weight = if is_local(pred) {
                WeightSource::Local(ctx.local(&w_arr)[at(pred)])
            } else {
                stats.get_words += 2;
                WeightSource::Remote(ctx.get(&w_arr, pred, 1))
            };
            pend.push(Pending { k: c.k, succ, pred, weight, pred_weight });
        }
        ctx.charge(8 * pend.len() as u64); // splice bookkeeping
        ctx.sync();

        // Phase D: fold weights into predecessors; log removals.
        let mut removed_now = Vec::with_capacity(pend.len());
        keep.clear();
        keep.resize(active.len(), true);
        for q in pend.drain(..) {
            let old = match q.pred_weight {
                WeightSource::Local(v) => v,
                WeightSource::Remote(t) => take_one(ctx, t, &mut word_of),
            };
            let new = old + q.weight;
            if is_local(q.pred) {
                ctx.local_mut(&w_arr)[at(q.pred)] = new;
            } else {
                stats.put_words += 2;
                ctx.put(&w_arr, q.pred, &[new]);
            }
            removed_now.push(Removal {
                elem: active[q.k],
                succ_at_removal: q.succ,
                weight_at_removal: q.weight,
            });
            keep[q.k] = false;
        }
        ctx.charge(8 * removed_now.len() as u64);
        // Compact the active list (preserving order).
        let mut w = 0;
        for k in 0..active.len() {
            if keep[k] {
                active[w] = active[k];
                w += 1;
            }
        }
        active.truncate(w);
        removed_log.push(removed_now);
        iter_stats.push(stats);
        ctx.sync();
    }

    // --- Finish stage: ship survivors to processor 0. ---
    let mut finish_words = 0u64;

    // Phase E: all-gather survivor counts.
    for j in 0..p {
        if j == me {
            ctx.local_write(&cnts, me * p + me, &[active.len() as u64]);
        } else {
            finish_words += 2;
            ctx.put(&cnts, j * p + me, &[active.len() as u64]);
        }
    }
    ctx.charge(p as u64);
    ctx.sync();

    // Phase F: register the survivor arrays (everything in processor
    // 0's block: length z·p so block 0 covers all z entries).
    let counts_row = ctx.local_vec(&cnts);
    let z: usize = counts_row.iter().map(|&c| c as usize).sum();
    let my_off: usize = counts_row[..me].iter().map(|&c| c as usize).sum();
    ctx.charge(p as u64);
    let zlen = (z * p).max(p);
    let svr_s = ctx.register::<u64>("lr.svr_succ", zlen, Layout::Block);
    let svr_w = ctx.register::<u64>("lr.svr_weight", zlen, Layout::Block);
    let svr_id = ctx.register::<u64>("lr.svr_id", zlen, Layout::Block);
    ctx.sync();

    // Phase G: ship survivor records (id, current succ, weight).
    let mut ship_s = Vec::with_capacity(active.len());
    let mut ship_w = Vec::with_capacity(active.len());
    let mut ship_id = Vec::with_capacity(active.len());
    for &e in &active {
        ship_s.push(ctx.local(&s_arr)[at(e)]);
        ship_w.push(ctx.local(&w_arr)[at(e)]);
        ship_id.push(e as u64);
    }
    ctx.charge(3 * active.len() as u64);
    if !active.is_empty() {
        if me == 0 {
            ctx.local_write(&svr_s, my_off, &ship_s);
            ctx.local_write(&svr_w, my_off, &ship_w);
            ctx.local_write(&svr_id, my_off, &ship_id);
        } else {
            finish_words += 6 * active.len() as u64;
            ctx.put(&svr_s, my_off, &ship_s);
            ctx.put(&svr_w, my_off, &ship_w);
            ctx.put(&svr_id, my_off, &ship_id);
        }
    }
    ctx.sync();

    // Phase H: processor 0 ranks the contracted list sequentially and
    // scatters the survivor ranks to their home blocks.
    if me == 0 && z > 0 {
        let sv_s = ctx.local_read(&svr_s, 0, z);
        let sv_w = ctx.local_read(&svr_w, 0, z);
        let sv_id = ctx.local_read(&svr_id, 0, z);
        let mut index_of = std::collections::HashMap::with_capacity(z);
        for (k, &id) in sv_id.iter().enumerate() {
            index_of.insert(id, k);
        }
        let mut csucc = vec![NIL; z];
        let mut head = usize::MAX;
        let mut seen_target = vec![false; z];
        for k in 0..z {
            if sv_s[k] != NIL {
                let t = *index_of.get(&sv_s[k]).expect("survivor successor not shipped");
                csucc[k] = t as u64;
                seen_target[t] = true;
            }
        }
        for (k, &seen) in seen_target.iter().enumerate() {
            if !seen {
                head = k;
            }
        }
        let ranks = seq::weighted_list_ranks(&csucc, &sv_w, head);
        ctx.charge(12 * z as u64); // index map + sequential chase
        for k in 0..z {
            let e = sv_id[k] as usize;
            if is_local(e) {
                ctx.local_mut(&rank_arr)[at(e)] = ranks[k];
            } else {
                finish_words += 2;
                ctx.put(&rank_arr, e, &[ranks[k]]);
            }
        }
        ctx.charge(z as u64);
    }
    ctx.sync();

    // --- Expansion: reverse iteration order, one phase each. ---
    enum RankSource {
        Local(usize),
        Remote(GetTicket<u64>),
    }
    let mut pending: Vec<(usize, u64, RankSource)> = Vec::new();
    for it in (0..iters).rev() {
        // Resolve the previous batch (its successors' ranks are now
        // written locally or delivered by the past sync), then issue
        // gets for this batch; the sync at the end serves them from
        // the post-write state.
        for (elem, weight, src) in pending.drain(..) {
            let succ_rank = match src {
                RankSource::Local(s) => ctx.local(&rank_arr)[at(s)],
                RankSource::Remote(t) => take_one(ctx, t, &mut word_of),
            };
            ctx.local_mut(&rank_arr)[at(elem)] = succ_rank + weight;
        }
        let batch = &removed_log[it];
        for r in batch {
            let src = if is_local(r.succ_at_removal) {
                RankSource::Local(r.succ_at_removal)
            } else {
                iter_stats[it].expansion_get_words += 2;
                RankSource::Remote(ctx.get(&rank_arr, r.succ_at_removal, 1))
            };
            pending.push((r.elem, r.weight_at_removal, src));
        }
        ctx.charge(6 * batch.len() as u64);
        ctx.sync();
    }
    for (elem, weight, src) in pending.drain(..) {
        let succ_rank = match src {
            RankSource::Local(s) => ctx.local(&rank_arr)[at(s)],
            RankSource::Remote(t) => take_one(ctx, t, &mut word_of),
        };
        ctx.local_mut(&rank_arr)[at(elem)] = succ_rank + weight;
    }
    ctx.sync();

    out.write(me, ctx.local(&rank_arr));
    ProcOutcome { iters: iter_stats, survivors: active.len() as u64, finish_words }
}

/// Result of a list-ranking run on any backend.
#[derive(Debug)]
pub struct ListRankRun {
    /// Final ranks (distance to tail) for all `n` elements.
    pub ranks: Vec<u64>,
    /// The raw run.
    pub run: RunResult<ProcOutcome>,
}

impl ListRankRun {
    /// Measured communication cycles over the algorithm's phases.
    pub fn comm(&self) -> f64 {
        crate::measured(&self.run, SETUP_PHASES, |t| t.comm)
    }

    /// Measured total cycles over the algorithm's phases.
    pub fn total(&self) -> f64 {
        crate::measured(&self.run, SETUP_PHASES, |t| t.elapsed)
    }

    /// Number of measured phases π.
    pub fn phases(&self) -> usize {
        self.run.num_phases() - SETUP_PHASES
    }

    /// Per-iteration maxima across processors.
    pub fn iter_maxima(&self) -> Vec<IterStats> {
        let outcomes = &self.run.outputs;
        let iters = outcomes.first().map(|o| o.iters.len()).unwrap_or(0);
        (0..iters)
            .map(|i| {
                let mut m = IterStats::default();
                for o in outcomes {
                    m.active = m.active.max(o.iters[i].active);
                    m.get_words = m.get_words.max(o.iters[i].get_words);
                    m.put_words = m.put_words.max(o.iters[i].put_words);
                    m.expansion_get_words =
                        m.expansion_get_words.max(o.iters[i].expansion_get_words);
                }
                m
            })
            .collect()
    }

    /// Total survivors shipped to processor 0.
    pub fn survivors(&self) -> u64 {
        self.run.outputs.iter().map(|o| o.survivors).sum()
    }
}

/// Run on any [`Machine`] backend. Panics if `succ` and `pred` differ
/// in length.
pub fn run_on<M: Machine>(machine: &M, succ: &[u64], pred: &[u64]) -> ListRankRun {
    let (n, n_pred) = (succ.len(), pred.len());
    assert!(n == n_pred, "listrank: succ has {n} elements but pred has {n_pred}");
    let mut ranks = qsm_core::zeroed_output(n); // untouched pages: the workers fault them in
    let out = Gather::new(&mut ranks, machine.nprocs());
    let run = machine.run(|ctx| program(ctx, succ, pred, &out));
    ListRankRun { ranks, run }
}

/// Expected per-iteration remote traffic for `x` active elements per
/// processor with remote fraction `rho`: candidates (x/2) fetch a
/// 1-word flip, removers (x/4) fetch a 2-word weight and write
/// 4 + 2 words of splice/weight traffic; the matching expansion
/// iteration fetches a 2-word rank per removed element.
fn iter_comm(x: f64, rho: f64, params: &EffectiveCosts) -> f64 {
    let gets = x / 2.0 + 2.0 * (x / 4.0) + 2.0 * (x / 4.0);
    let puts = 6.0 * (x / 4.0);
    rho * (params.g_get * gets + params.g_put * puts)
}

/// Best-case prediction: no skew, `x_i = (n/p)(3/4)^(i-1)`,
/// survivors `n·(3/4)^iters`.
pub fn predict_best(n: usize, params: &EffectiveCosts) -> Prediction {
    predict_shrinking(n, params, |x| x * 0.75)
}

/// WHP prediction: Chernoff upper bounds on every `x_i` (survival
/// probability 3/4 per element, failure budget split across
/// iterations and processors).
pub fn predict_whp(n: usize, params: &EffectiveCosts) -> Prediction {
    let delta = WHP_DELTA / ((iterations(params.p).max(1) as f64) * params.p as f64);
    predict_shrinking(n, params, |x| binomial_upper_bound(x.ceil() as u64, 0.75, delta))
}

/// The Best and WHP lines: `x = n/p` active elements per processor,
/// `survivors(x)` of them after each iteration.
fn predict_shrinking(
    n: usize,
    params: &EffectiveCosts,
    survivors: impl Fn(f64) -> f64,
) -> Prediction {
    let p = params.p as f64;
    let iters = iterations(params.p);
    let rho = (p - 1.0) / p;
    let mut x = n as f64 / p;
    let mut comm = 0.0;
    for _ in 0..iters {
        comm += iter_comm(x, rho, params);
        x = survivors(x);
    }
    // Finish: survivors shipped (6 words each) + processor 0's rank
    // scatter (2 words each, z = p·x of them) + count all-gather.
    let z = p * x;
    comm += params.g_put * (6.0 * x + 2.0 * z * rho + 2.0 * (p - 1.0));
    let phases = 4 * iters + 4 + iters + 1;
    Prediction::from_qsm(comm, phases, params)
}

/// Estimate from the traffic actually measured in a run.
pub fn predict_estimate(run: &ListRankRun, params: &EffectiveCosts) -> Prediction {
    let p = params.p as f64;
    let mut comm = 0.0;
    for it in &run.iter_maxima() {
        comm += params.g_get * (it.get_words + it.expansion_get_words) as f64
            + params.g_put * it.put_words as f64;
    }
    let finish = run.run.outputs.iter().map(|o| o.finish_words).max().unwrap_or(0);
    comm += params.g_put * finish as f64 + params.g_put * 2.0 * (p - 1.0);
    Prediction::from_qsm(comm, run.phases(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_list;
    use qsm_core::SimMachine;
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    fn check(n: usize, p: usize, seed: u64) {
        let (succ, pred, head) = random_list(n, seed);
        let run = run_on(&machine(p), &succ, &pred);
        assert_eq!(run.ranks, seq::list_ranks(&succ, head), "n={n} p={p} seed={seed}");
    }

    #[test]
    fn ranks_small_lists() {
        check(10, 2, 1);
        check(33, 4, 2);
        check(100, 4, 3);
    }

    #[test]
    fn ranks_medium_list() {
        check(2000, 8, 4);
    }

    #[test]
    fn ranks_on_single_processor() {
        check(50, 1, 5);
    }

    #[test]
    fn ranks_with_n_smaller_than_p() {
        check(5, 8, 6);
    }

    #[test]
    fn contraction_actually_shrinks() {
        let n = 4096;
        let (succ, pred, _) = random_list(n, 7);
        let run = run_on(&machine(8), &succ, &pred);
        assert!(
            (run.survivors() as usize) < n / 4,
            "survivors {} should be far below n {n}",
            run.survivors()
        );
        // Active counts decrease geometrically-ish.
        let maxima = run.iter_maxima();
        let first = maxima[0].active;
        let last = maxima.last().unwrap().active;
        assert!(last < first / 4);
    }

    #[test]
    fn phase_count_matches_structure() {
        let (succ, pred, _) = random_list(512, 8);
        let p = 4;
        let run = run_on(&machine(p), &succ, &pred);
        let iters = iterations(p);
        // 4 per contraction iteration + E,F,G,H + one per expansion
        // iteration + closing sync.
        assert_eq!(run.phases(), 4 * iters + 4 + iters + 1);
    }

    #[test]
    fn best_below_whp() {
        let params = crate::analysis::fixed(16, 140.0, 25_500.0);
        for n in [1 << 12, 1 << 18] {
            assert!(predict_best(n, &params).qsm < predict_whp(n, &params).qsm);
        }
    }

    #[test]
    fn estimate_tracks_measured_comm_shape() {
        let m = machine(8);
        let (succ, pred, _) = random_list(1 << 14, 9);
        let run = run_on(&m, &succ, &pred);
        let params = EffectiveCosts::measure(MachineConfig::paper_default(8));
        let est = predict_estimate(&run, &params);
        let measured = run.comm();
        // The estimate misses only the per-phase o/l/L constant, so it
        // must land below measured but within a reasonable factor once
        // the BSP L term is added.
        assert!(est.qsm < measured);
        let err = (measured - est.bsp).abs() / measured;
        assert!(err < 0.6, "BSP estimate off by {err} ({} vs {measured})", est.bsp);
    }
}
