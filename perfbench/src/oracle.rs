//! The correctness gate: replies are compared against the `uncertain_nn`
//! library oracle the differential suites use — `NN≠0` id sets exactly,
//! `TOPK` ranks and probabilities bit for bit (`f64` equality, as the suites'
//! `assert_eq!` on `(id, π)` pairs does).

use std::collections::BTreeMap;

use uncertain_engine::server::protocol::Reply;
use uncertain_engine::{QueryRequest, SiteId, Update};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::queries::{top_k_probable, ExactQuantifier};

/// The client's copy of the served site set, rebuilt from the updates it
/// sent and the ids the `APPLY` replies assigned.
pub struct Mirror {
    sites: BTreeMap<SiteId, DiscreteUncertainPoint>,
}

impl Mirror {
    /// A fresh engine serves `set` under the ids `0..n`.
    pub fn new(set: &DiscreteSet) -> Self {
        Mirror {
            sites: set.points.iter().cloned().enumerate().collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Folds one acknowledged `APPLY` in. Fails when the reply's inserted
    /// ids do not line up with the batch's inserts, or a remove/move names a
    /// site the mirror does not hold (the engine would have missed it).
    pub fn apply(&mut self, updates: &[Update], inserted: &[u64]) -> Result<(), String> {
        let mut ids = inserted.iter();
        for u in updates {
            match u {
                Update::Insert(site) => {
                    let id = ids
                        .next()
                        .ok_or("APPLY reply lists fewer inserted ids than inserts sent")?;
                    if self.sites.insert(*id as SiteId, site.clone()).is_some() {
                        return Err(format!("APPLY reused live id {id}"));
                    }
                }
                Update::Remove(id) => {
                    self.sites
                        .remove(id)
                        .ok_or(format!("removed id {id} is not in the mirror"))?;
                }
                Update::Move { id, to } => {
                    let slot = self
                        .sites
                        .get_mut(id)
                        .ok_or(format!("moved id {id} is not in the mirror"))?;
                    *slot = to.clone();
                }
            }
        }
        if ids.next().is_some() {
            return Err("APPLY reply lists more inserted ids than inserts sent".into());
        }
        Ok(())
    }

    /// The oracle over the mirrored live set (dense index → stable id).
    pub fn oracle(&self) -> Oracle {
        Oracle {
            set: DiscreteSet::new(self.sites.values().cloned().collect()),
            ids: self.sites.keys().copied().collect(),
        }
    }
}

/// Library answers over one site set, keyed by stable id.
pub struct Oracle {
    set: DiscreteSet,
    /// `ids[dense]` is the stable id of `set.points[dense]` (ascending).
    ids: Vec<SiteId>,
}

impl Oracle {
    /// Checks one reply against the library answer for its request.
    pub fn check(&self, req: &QueryRequest, rep: &Reply) -> Result<(), String> {
        match (req, rep) {
            (QueryRequest::Nonzero { q }, Reply::Nonzero(got)) => {
                let mut want: Vec<u64> = self
                    .set
                    .nonzero_nn(*q)
                    .into_iter()
                    .map(|d| self.ids[d] as u64)
                    .collect();
                want.sort_unstable();
                if got != &want {
                    return Err(format!("NN≠0 at {q}: got {got:?}, oracle {want:?}"));
                }
            }
            (QueryRequest::TopK { q, k }, Reply::Ranked { items, .. }) => {
                let want: Vec<(u64, f64)> = top_k_probable(&ExactQuantifier(&self.set), *q, *k)
                    .into_iter()
                    .map(|(d, p)| (self.ids[d] as u64, p))
                    .collect();
                if items != &want {
                    return Err(format!("TOPK at {q}: got {items:?}, oracle {want:?}"));
                }
            }
            _ => return Err(format!("reply {rep:?} does not answer {req:?}")),
        }
        Ok(())
    }

    /// Checks every sampled pair, stopping at the first mismatch.
    pub fn check_all(&self, samples: &[(QueryRequest, Reply)]) -> Result<(), String> {
        samples
            .iter()
            .try_for_each(|(req, rep)| self.check(req, rep))
    }
}
