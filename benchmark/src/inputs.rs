//! Inputs from `--seed`: σ0 over a generated hospital catalog, with the
//! *volume* of work held steady across seeds.
//!
//! The generator's procedure hierarchy is a random DAG, so the size of a
//! day's report swings 4× between seeds (100k–430k nodes on Small) and the
//! unfolding depth a request needs swings with it. A benchmark whose work
//! differs that much per seed cannot compare two commits across seeds. So
//! two things are held still. The treatment hierarchy (`DB4`) is always the
//! one of the generator's default seed — Table 1's dataset; `--seed`
//! generates the patients, visits, coverage and prices around it. And the
//! seed names a *sequence* of candidate datasets, of which the first is
//! taken whose report dates can be chosen to a fixed total document size
//! and a fixed final unfolding depth — both computed here from the tables
//! alone (`report_volumes`), never by running the program.

use aig_datagen::{DatasetSize, HospitalConfig, HospitalData};
use aig_relstore::Catalog;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The dataset a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `HospitalConfig::tiny`, all four dates, their documents totalling
    /// `TINY_NODES`; every date must escalate the frontier 3 → 6 → 12.
    Tiny,
    /// Table 1's Small; three dates whose documents total `SMALL_NODES`.
    Small,
    /// Small; the one date nearest `SMALL_ONE_NODES`.
    SmallOneDate,
    /// `--quick`: tiny data, all dates, the first candidate as it comes.
    Quick,
}

/// Document nodes the three Small report dates total (≈0.37 s a request;
/// the default seed's dates run 109k–167k nodes each).
const SMALL_NODES: usize = 450_000;
/// Document nodes of the one delta-refresh date.
const SMALL_ONE_NODES: usize = 120_000;
/// Document nodes tiny's four dates total. The cold pipeline's time hardly
/// depends on it, but the bytes it ships do.
const TINY_NODES: usize = 3_700;
/// Accepted deviation from the node targets, as 1/x of the target: 0.5 %
/// where dates can be chosen, 2 % where a whole dataset is taken or left.
const TOLERANCE_INV: usize = 200;
const TINY_TOLERANCE_INV: usize = 50;

pub struct Inputs {
    pub catalog: Catalog,
    /// The report dates the ops bind, in op order.
    pub dates: Vec<String>,
    /// The final unfolding depth every op needs (frontier doubling from 3).
    pub depth: usize,
}

/// What one date's report will look like, from the tables alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Volume {
    /// Element + text nodes of the σ0 document.
    pub nodes: usize,
    /// Deepest treatment nesting (1 = no sub-treatments, 0 = no treatment).
    pub levels: usize,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The frontier cut-off doubles the depth from 3 until the deepest level
/// produces no instances: depth `d` suffices for fewer than `d` levels.
fn depth_for(levels: usize) -> usize {
    let mut depth = 3;
    while levels >= depth {
        depth *= 2;
    }
    depth
}

/// The seed of the tiny hierarchy: six nesting levels at most, so a date
/// that reaches the deepest chain needs depth 12.
const TINY_HIERARCHY_SEED: u64 = 3;

pub fn generate(dataset: Dataset, seed: u64) -> Inputs {
    let config = match dataset {
        Dataset::Tiny | Dataset::Quick => HospitalConfig::tiny(TINY_HIERARCHY_SEED),
        Dataset::Small | Dataset::SmallOneDate => HospitalConfig::sized(DatasetSize::Small),
    };
    let hierarchy = config.generate().expect("dataset generation").catalog;
    let db4 = hierarchy.source_id("DB4").expect("DB4");
    for attempt in 0..10_000u64 {
        let data_seed = splitmix64(seed.wrapping_add(attempt.wrapping_mul(0x1_0000_0001)));
        let mut data = config
            .clone()
            .with_seed(data_seed)
            .generate()
            .expect("dataset generation");
        *data.catalog.source_mut(db4) = hierarchy.source(db4).clone();
        let volumes = report_volumes(&data);
        if let Some(picked) = pick_dates(dataset, &volumes) {
            let levels = picked.iter().map(|&i| volumes[i].levels).max().unwrap_or(0);
            return Inputs {
                dates: picked.iter().map(|&i| data.dates[i].clone()).collect(),
                catalog: data.catalog,
                depth: depth_for(levels),
            };
        }
    }
    panic!("no candidate dataset met the volume targets for seed {seed}");
}

/// The dates (indices) this dataset contributes, or `None` to reject it.
fn pick_dates(dataset: Dataset, volumes: &[Volume]) -> Option<Vec<usize>> {
    let n = volumes.len();
    match dataset {
        Dataset::Quick => Some((0..n).collect()),
        Dataset::Tiny => {
            let total: usize = volumes.iter().map(|v| v.nodes).sum();
            (total.abs_diff(TINY_NODES) * TINY_TOLERANCE_INV <= TINY_NODES
                && volumes.iter().all(|v| depth_for(v.levels) == 12))
            .then(|| (0..n).collect())
        }
        Dataset::SmallOneDate => {
            let best = (0..n).min_by_key(|&i| volumes[i].nodes.abs_diff(SMALL_ONE_NODES))?;
            let v = volumes[best];
            (v.nodes.abs_diff(SMALL_ONE_NODES) * TOLERANCE_INV <= SMALL_ONE_NODES
                && depth_for(v.levels) == 24)
                .then(|| vec![best])
        }
        Dataset::Small => {
            // The 3-subset of the 20 dates whose documents total nearest
            // the target (1140 subsets: brute force).
            let mut best: Option<(usize, [usize; 3])> = None;
            for a in 0..n {
                for b in a + 1..n {
                    for c in b + 1..n {
                        let total: usize = [a, b, c].iter().map(|&i| volumes[i].nodes).sum();
                        let off = total.abs_diff(SMALL_NODES);
                        if best.is_none_or(|(o, _)| off < o) {
                            best = Some((off, [a, b, c]));
                        }
                    }
                }
            }
            let (off, picked) = best?;
            let levels = picked.iter().map(|&i| volumes[i].levels).max()?;
            (off * TOLERANCE_INV <= SMALL_NODES && depth_for(levels) == 24).then(|| picked.to_vec())
        }
    }
}

/// Per date of `data.dates`: the exact node count and nesting depth of the
/// σ0 report, by dynamic programming over the procedure DAG. A `patient`
/// element carries 7 fixed nodes, each `treatment` instance 6, each billed
/// `item` 5, under one `report` root.
pub fn report_volumes(data: &HospitalData) -> Vec<Volume> {
    let catalog = &data.catalog;
    let rows = |source: &str, table: &str| -> Vec<Vec<String>> {
        catalog
            .table(source, table)
            .expect("hospital table")
            .rows()
            .iter()
            .map(|row| row.iter().map(|v| v.to_text()).collect())
            .collect()
    };
    let mut children: HashMap<String, Vec<String>> = HashMap::new();
    for row in rows("DB4", "procedure") {
        children
            .entry(row[0].clone())
            .or_default()
            .push(row[1].clone());
    }
    let policy: HashMap<String, String> = rows("DB1", "patient")
        .into_iter()
        .map(|row| (row[0].clone(), row[2].clone()))
        .collect();
    let cover: HashSet<(String, String)> = rows("DB2", "cover")
        .into_iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect();
    let visits = rows("DB1", "visitInfo");

    let mut memo: HashMap<String, Subtree> = HashMap::new();
    data.dates
        .iter()
        .map(|date| {
            let mut per_patient: HashMap<&str, Vec<&str>> = HashMap::new();
            for row in visits.iter().filter(|row| &row[2] == date) {
                per_patient.entry(&row[0]).or_default().push(&row[1]);
            }
            let mut nodes = 1;
            let mut levels = 0;
            for (ssn, treatments) in per_patient {
                let mut billed: BTreeSet<String> = BTreeSet::new();
                nodes += 7;
                for tr in treatments {
                    if cover.contains(&(policy[ssn].clone(), tr.to_string())) {
                        let sub = subtree(tr, &children, &mut memo);
                        nodes += 6 * sub.instances;
                        levels = levels.max(sub.levels);
                        billed.extend(sub.reach.iter().cloned());
                    }
                }
                nodes += 5 * billed.len();
            }
            Volume { nodes, levels }
        })
        .collect()
}

/// The tree-unfolded hierarchy below one treatment.
#[derive(Clone)]
struct Subtree {
    /// `treatment` elements in the unfolded tree (paths from the root).
    instances: usize,
    levels: usize,
    /// Distinct treatments reachable (what the bill prices).
    reach: BTreeSet<String>,
}

fn subtree(
    tr: &str,
    children: &HashMap<String, Vec<String>>,
    memo: &mut HashMap<String, Subtree>,
) -> Subtree {
    if let Some(done) = memo.get(tr) {
        return done.clone();
    }
    let mut out = Subtree {
        instances: 1,
        levels: 1,
        reach: BTreeSet::from([tr.to_string()]),
    };
    for child in children.get(tr).map(Vec::as_slice).unwrap_or_default() {
        let sub = subtree(child, children, memo);
        out.instances += sub.instances;
        out.levels = out.levels.max(sub.levels + 1);
        out.reach.extend(sub.reach);
    }
    memo.insert(tr.to_string(), out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_relstore::Value;

    /// The volume model must agree with what the program produces, or the
    /// seeds stop being comparable.
    #[test]
    fn predicted_volume_matches_the_mediator() {
        let aig = aig_core::paper::sigma0().unwrap();
        let data = HospitalConfig::tiny(3).generate().unwrap();
        let volumes = report_volumes(&data);
        for (date, volume) in data.dates.iter().zip(&volumes) {
            let run = aig_mediator::run(
                &aig,
                &data.catalog,
                &[("date", Value::str(date))],
                &aig_mediator::MediatorOptions::default(),
            )
            .unwrap();
            assert_eq!(run.tree.len(), volume.nodes, "{date}");
            assert_eq!(run.depth, depth_for(volume.levels), "{date}");
        }
    }

    #[test]
    fn same_seed_same_inputs_and_targets_met() {
        let a = generate(Dataset::Tiny, 7);
        let b = generate(Dataset::Tiny, 7);
        assert_eq!(a.dates, b.dates);
        assert_eq!(
            a.catalog.table("DB3", "billing").unwrap().rows(),
            b.catalog.table("DB3", "billing").unwrap().rows()
        );
        assert_eq!(a.depth, 12);
        assert_eq!(a.dates.len(), 4);
    }
}
