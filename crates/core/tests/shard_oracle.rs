//! The scatter-gather sharding oracle (DESIGN.md §15).
//!
//! [`kgag::RouterCore`] promises that scoring over *any* row
//! partitioning of the model — 1 to N shards — is **bit-identical** to
//! the single-node [`kgag::Scorer`] path, at any thread count and
//! with the draw memo on or off. The property suite here drives random
//! case batches over
//! random 1–4-shard partitions through [`kgag::LocalFetch`] — the
//! partitioning semantics without the network — against exactly that
//! oracle. CI additionally proves the *networked* layer end-to-end
//! (`shard_check`), so the TCP pool only ever adds transport, never
//! semantics.
//!
//! Failure semantics get their own tests: with one shard dead, every
//! case either scores bit-identically (its receptive field never
//! touches the dead shard) or fails with a typed [`kgag::ShardError`]
//! naming that shard — never a panic, never a corrupted score. A peer
//! row that is not finite, and a group or item id out of range, fail
//! only their own cases, typed.

use kgag::{
    Kgag, KgagConfig, LocalFetch, RouterCore, Scorer, ShardError, ShardErrorKind, ShardFetch,
};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_tensor::pool::with_threads;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, vec_of};

fn smoke_model() -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    (ds, model)
}

fn local_fetches(model: &Kgag, max_count: usize) -> Vec<LocalFetch> {
    (1..=max_count)
        .map(|count| LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect()))
        .collect()
}

/// Decode one generated word vector into a scoring scenario: shard
/// count, thread count, memo toggle, and a batch of (group, items)
/// cases (duplicate items and shared groups intentionally allowed).
fn decode(
    words: &[u32],
    num_groups: u32,
    num_items: u32,
) -> (usize, usize, bool, Vec<(u32, Vec<u32>)>) {
    let count = (words[0] % 4) as usize + 1;
    let threads = if words[1] % 2 == 0 { 1 } else { 4 };
    let memo = words[2] % 2 == 0;
    let mut cases = Vec::new();
    for pair in words[3..].chunks_exact(2) {
        let group = pair[0] % num_groups;
        let start = pair[1] % num_items;
        let len = 1 + (pair[1] / 7) % 16;
        let items: Vec<u32> = (0..len).map(|i| (start + i) % num_items).collect();
        cases.push((group, items));
    }
    (count, threads, memo, cases)
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The tentpole property: router-fused scores over a random 1–4-shard
/// partition equal the unsharded batch path bit for bit, across thread
/// counts and with the draw memo on or off.
#[test]
fn sharded_scores_are_bit_identical_to_single_node() {
    let (ds, model) = smoke_model();
    let fetches = local_fetches(&model, 4);
    let (num_groups, num_items) = (ds.num_groups(), ds.num_items);
    let scorer = Scorer::new(&model, true);
    Runner::new("sharded_scores_are_bit_identical_to_single_node").run(
        &vec_of(u32_in(0..u32::MAX), 5..13),
        |words| {
            let (count, threads, memo, cases) = decode(words, num_groups, num_items);
            let want = with_threads(1, || scorer.score_cases(&cases));
            let router = RouterCore::from_model(&model, memo);
            let got = with_threads(threads, || router.score_cases(&fetches[count - 1], &cases));
            for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
                match g {
                    Ok(scores) if bits(scores) == bits(w) => {}
                    Ok(scores) => {
                        return Err(format!(
                            "count={count} threads={threads} memo={memo}: case {ci} diverged\n\
                             want {:?}\n got {:?}",
                            bits(w),
                            bits(scores)
                        ))
                    }
                    Err(e) => {
                        return Err(format!(
                            "count={count} threads={threads} memo={memo}: case {ci} errored: {e}"
                        ))
                    }
                }
            }
            Ok(())
        },
    );
}

/// A fetch whose `dead` shard is gone: any query touching an id that
/// shard owns fails with a typed error, everything else delegates.
struct DeadShardFetch {
    inner: LocalFetch,
    dead: usize,
    model_entities: usize,
    model_relations: usize,
    count: usize,
}

impl DeadShardFetch {
    fn guard(&self, ids: &[u32], relations: bool) -> Result<(), ShardError> {
        let rows = if relations { self.model_relations } else { self.model_entities };
        let part = kgag_kg::Partition::new(rows, self.count);
        if ids.iter().any(|&id| part.shard_of(id as usize) == self.dead) {
            Err(ShardError { shard: self.dead, kind: ShardErrorKind::Unavailable })
        } else {
            Ok(())
        }
    }
}

impl ShardFetch for DeadShardFetch {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        self.guard(entities, false)?;
        self.inner.fetch_draws(salt, level, entities)
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.guard(ids, false)?;
        self.inner.fetch_entity_rows(ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.guard(ids, true)?;
        self.inner.fetch_relation_rows(ids)
    }
}

/// With one shard dead, every case either scores bit-identically to the
/// single-node path (its receptive field never needs the dead shard) or
/// carries a typed error naming exactly that shard — and the sweep as a
/// whole neither panics nor hangs.
#[test]
fn dead_shard_yields_typed_errors_on_affected_cases_only() {
    let (ds, model) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> =
        (0..ds.num_groups().min(6)).map(|g| (g, items.clone())).collect();
    let want = Scorer::new(&model, true).score_cases(&cases);
    let ckg = model.collaborative_kg();
    for count in [2usize, 3] {
        for dead in 0..count {
            let fetch = DeadShardFetch {
                inner: LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect()),
                dead,
                model_entities: ckg.num_entities(),
                model_relations: ckg.num_relation_slots(),
                count,
            };
            for memo in [false, true] {
                let router = RouterCore::from_model(&model, memo);
                let got = router.score_cases(&fetch, &cases);
                for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
                    match g {
                        Ok(scores) => assert_eq!(
                            bits(scores),
                            bits(w),
                            "count={count} dead={dead} memo={memo}: surviving case {ci} diverged"
                        ),
                        Err(e) => assert_eq!(
                            *e,
                            ShardError { shard: dead, kind: ShardErrorKind::Unavailable },
                            "count={count} dead={dead} memo={memo}: case {ci} wrong error"
                        ),
                    }
                }
            }
        }
    }
}

/// Sanity on the trivial partition: one shard holds everything, and the
/// router equals the per-case path exactly (transitively through the
/// batched oracle).
#[test]
fn single_shard_router_matches_per_case_path() {
    let (ds, model) = smoke_model();
    let fetch = LocalFetch::new(vec![model.shard_state(0, 1)]);
    let items: Vec<u32> = (0..ds.num_items).collect();
    let router = RouterCore::from_model(&model, true);
    let got = router.score_cases(&fetch, &[(0, items.clone())]);
    let want = model.score_group_items(0, &items);
    assert_eq!(bits(got[0].as_ref().expect("local fetch never fails")), bits(&want));
}

/// A fetch that serves one entity row as NaN — a faulty peer.
struct CorruptRowFetch {
    inner: LocalFetch,
    entity: u32,
}

impl ShardFetch for CorruptRowFetch {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        self.inner.fetch_draws(salt, level, entities)
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let mut rows = self.inner.fetch_entity_rows(ids)?;
        let dim = rows.len() / ids.len().max(1);
        if let Some(i) = ids.iter().position(|&id| id == self.entity) {
            rows[i * dim] = f32::NAN;
        }
        Ok(rows)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.inner.fetch_relation_rows(ids)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

/// One non-finite row from a peer fails exactly the cases whose fields
/// read it, with a typed protocol error naming the owning shard; every
/// other case stays bit-identical, and nothing panics.
#[test]
fn corrupt_peer_row_fails_only_the_cases_that_read_it() {
    let (ds, model) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> =
        (0..ds.num_groups().min(6)).map(|g| (g, items.clone())).collect();
    let want = Scorer::new(&model, true).score_cases(&cases);
    let entity = model.collaborative_kg().user_entity(ds.groups[0][0]).0;
    let count = 3;
    let owner = kgag_kg::Partition::new(model.collaborative_kg().num_entities(), count)
        .shard_of(entity as usize);
    for memo in [false, true] {
        let fetch = CorruptRowFetch {
            inner: LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect()),
            entity,
        };
        let got = RouterCore::from_model(&model, memo).score_cases(&fetch, &cases);
        assert!(got[0].is_err(), "memo={memo}: the case reading the corrupt row must fail");
        for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
            match g {
                Ok(scores) => assert_eq!(bits(scores), bits(w), "memo={memo}: case {ci}"),
                Err(e) => assert_eq!(
                    *e,
                    ShardError { shard: owner, kind: ShardErrorKind::Protocol },
                    "memo={memo}: case {ci} wrong error"
                ),
            }
        }
    }
}

/// Out-of-range group and item ids fail their own cases with a typed
/// error instead of a panic; the valid cases keep their bits.
#[test]
fn out_of_range_ids_fail_their_case_typed() {
    let (ds, model) = smoke_model();
    let fetch = LocalFetch::new((0..2).map(|i| model.shard_state(i, 2)).collect());
    let cases =
        vec![(0, vec![0, 1]), (ds.num_groups(), vec![0]), (1, vec![2, ds.num_items]), (1, vec![3])];
    let got = RouterCore::from_model(&model, true).score_cases(&fetch, &cases);
    let invalid = ShardError { shard: 0, kind: ShardErrorKind::Invalid };
    assert_eq!(got[1], Err(invalid));
    assert_eq!(got[2], Err(invalid));
    for ci in [0, 3] {
        let (g, items) = &cases[ci];
        let scores = got[ci].as_ref().expect("valid case scores");
        assert_eq!(bits(scores), bits(&model.score_group_items(*g, items)), "case {ci}");
    }
}
