//! Randomized property tests (seeded PRNG, fully deterministic) over the
//! core invariants:
//!
//! * XML serializer ↔ parser round-trip;
//! * DTD normalization: documents generated against the normalized DTD,
//!   stripped of synthetic entities, conform to the original general DTD;
//! * compiled constraint guards agree with the whole-tree oracle on
//!   randomly corrupted data;
//! * the conceptual evaluator and the mediator agree on random datasets.

use aig_integration::core::paper::{empty_hospital_catalog, sigma0};
use aig_integration::core::{compile_constraints, AigError};
use aig_integration::datagen::HospitalConfig;
use aig_integration::prelude::*;
use aig_integration::xml::dtd::{ContentModel, Dtd, GeneralDtd, Regex};
use aig_integration::xml::{parse, serialize, validate_general, XmlTree};
use aig_prng::{Rng, SeedableRng, StdRng};

// ---------------------------------------------------------------------------
// Serializer round-trip
// ---------------------------------------------------------------------------

/// A random tree builder: nested tag/text instructions.
#[derive(Debug, Clone)]
enum Piece {
    Text(String),
    Elem(String, Vec<Piece>),
}

fn random_tag(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..7);
    let mut s = String::new();
    s.push((b'a' + rng.gen_range(0u32..26) as u8) as char);
    for _ in 0..len {
        let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
        s.push(alphabet[rng.gen_range(0usize..alphabet.len())] as char);
    }
    s
}

/// Printable ASCII text (includes the characters that need escaping);
/// excludes whitespace-only strings (the parser drops inter-element
/// formatting whitespace).
fn random_text(rng: &mut StdRng) -> String {
    loop {
        let len = rng.gen_range(1usize..13);
        let s: String = (0..len)
            .map(|_| (b' ' + rng.gen_range(0u32..95) as u8) as char)
            .collect();
        if s.chars().any(|c| !c.is_whitespace()) {
            return s;
        }
    }
}

fn random_piece(rng: &mut StdRng, depth: usize) -> Piece {
    let leaf = depth >= 3 || rng.gen_bool(0.4);
    if leaf {
        if rng.gen_bool(0.5) {
            Piece::Text(random_text(rng))
        } else {
            Piece::Elem(random_tag(rng), Vec::new())
        }
    } else {
        let children = (0..rng.gen_range(0usize..4))
            .map(|_| random_piece(rng, depth + 1))
            .collect();
        Piece::Elem(random_tag(rng), children)
    }
}

fn build(tree: &mut XmlTree, parent: aig_integration::xml::NodeId, piece: &Piece) {
    match piece {
        Piece::Text(text) => {
            tree.add_text(parent, text.clone());
        }
        Piece::Elem(tag, children) => {
            let node = tree.add_element(parent, tag.clone());
            for c in children {
                build(tree, node, c);
            }
        }
    }
}

#[test]
fn serialize_parse_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_A001);
    for case in 0..64 {
        let pieces: Vec<Piece> = (0..rng.gen_range(0usize..5))
            .map(|_| random_piece(&mut rng, 0))
            .collect();
        let mut tree = XmlTree::new("root");
        let root = tree.root();
        for p in &pieces {
            build(&mut tree, root, p);
        }
        // Adjacent text nodes coalesce through parsing, so the invariant is
        // a serialization fixpoint: serialize ∘ parse ∘ serialize = serialize.
        let text = serialize::to_string(&tree);
        let parsed = parse::parse(&text).unwrap();
        assert_eq!(serialize::to_string(&parsed), text, "case {case}");
        // Parsing is then a true inverse on the parsed (normalized) tree.
        assert_eq!(
            &parse::parse(&serialize::to_string(&parsed)).unwrap(),
            &parsed,
            "case {case}"
        );
        // Pretty printing keeps PCDATA intact only when each text node is an
        // only child (otherwise indentation whitespace joins the text — the
        // standard XML pretty-printing caveat); round-trip those cases.
        let pretty_safe = parsed.iter().all(|n| {
            parsed.is_element(n)
                || parsed
                    .parent(n)
                    .map(|p| parsed.children(p).len() == 1)
                    .unwrap_or(true)
        });
        if pretty_safe {
            let pretty = serialize::to_pretty_string(&parsed);
            let reparsed = parse::parse(&pretty).unwrap();
            assert_eq!(serialize::to_string(&reparsed), text, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// DTD normalization
// ---------------------------------------------------------------------------

/// A small random regex over the given element names.
fn random_regex(rng: &mut StdRng, names: &[String], depth: usize) -> Regex {
    let leaf = depth >= 2 || rng.gen_bool(0.4);
    if leaf {
        if rng.gen_bool(0.3) {
            Regex::Epsilon
        } else {
            Regex::Elem(rng.pick(names).clone())
        }
    } else {
        match rng.gen_range(0usize..5) {
            0 => Regex::Seq(
                (0..rng.gen_range(1usize..3))
                    .map(|_| random_regex(rng, names, depth + 1))
                    .collect(),
            ),
            1 => Regex::Choice(
                (0..rng.gen_range(1usize..3))
                    .map(|_| random_regex(rng, names, depth + 1))
                    .collect(),
            ),
            2 => Regex::Star(Box::new(random_regex(rng, names, depth + 1))),
            3 => Regex::Opt(Box::new(random_regex(rng, names, depth + 1))),
            _ => Regex::Plus(Box::new(random_regex(rng, names, depth + 1))),
        }
    }
}

/// Generates a random document conforming to a *restricted* DTD, bounding
/// star repetitions and recursion depth.
/// Returns false when the (possibly recursive) DTD cannot be filled within
/// the depth/size budget — those cases are skipped by the property.
fn generate_doc(
    dtd: &Dtd,
    elem: aig_integration::xml::ElemId,
    tree: &mut XmlTree,
    node: aig_integration::xml::NodeId,
    depth: usize,
    budget: &mut usize,
) -> bool {
    if depth > 24 || *budget == 0 {
        return false;
    }
    *budget -= 1;
    match dtd.production(elem) {
        ContentModel::Pcdata => {
            tree.add_text(node, "x");
            true
        }
        ContentModel::Empty => true,
        ContentModel::Seq(items) => {
            for &c in items.clone().iter() {
                let child = tree.add_element(node, dtd.name(c).to_string());
                if !generate_doc(dtd, c, tree, child, depth + 1, budget) {
                    return false;
                }
            }
            true
        }
        ContentModel::Choice(branches) => {
            let pick = branches[depth % branches.len()];
            let child = tree.add_element(node, dtd.name(pick).to_string());
            generate_doc(dtd, pick, tree, child, depth + 1, budget)
        }
        ContentModel::Star(inner) => {
            let reps = if depth > 8 || *budget < 10 {
                0
            } else {
                1 + depth % 2
            };
            let inner = *inner;
            for _ in 0..reps {
                let child = tree.add_element(node, dtd.name(inner).to_string());
                if !generate_doc(dtd, inner, tree, child, depth + 1, budget) {
                    return false;
                }
            }
            true
        }
    }
}

#[test]
fn normalized_documents_conform_to_the_general_dtd() {
    let names: Vec<String> = vec!["e1".into(), "e2".into(), "e3".into()];
    let mut rng = StdRng::seed_from_u64(0x5EED_A002);
    for case in 0..48 {
        let models: Vec<Regex> = (0..4).map(|_| random_regex(&mut rng, &names, 0)).collect();
        // e0 is the root; e1..e3 are the referenced elements (e3 is PCDATA).
        let decls = vec![
            ("e0".to_string(), models[0].clone()),
            ("e1".to_string(), models[1].clone()),
            ("e2".to_string(), models[2].clone()),
            ("e3".to_string(), Regex::Pcdata),
        ];
        let general = GeneralDtd {
            decls,
            root: "e0".to_string(),
        };
        let normalized = general.normalize().unwrap().dtd;

        // Generate against the normalized DTD, then strip the synthetic
        // entity wrappers and check general conformance (the paper's
        // linear-time back-conversion claim, §2).
        let mut tree = XmlTree::new("e0");
        let root = tree.root();
        let mut budget = 400usize;
        let ok = generate_doc(
            &normalized,
            normalized.root(),
            &mut tree,
            root,
            0,
            &mut budget,
        );
        if !ok {
            continue; // skip cases the bounded generator cannot fill
        }

        assert!(
            aig_integration::xml::validate(&tree, &normalized).is_ok(),
            "case {case}"
        );
        let stripped = tree.strip_elements(Dtd::is_synthetic);
        if let Err(e) = validate_general(&stripped, &general) {
            panic!("case {case}: stripped document fails general DTD: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Guards vs oracle on corrupted data
// ---------------------------------------------------------------------------

fn corrupt_billing(seed: u64, drop: bool, duplicate: bool) -> Catalog {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    let mut catalog = empty_hospital_catalog();
    for db in ["DB1", "DB2", "DB4"] {
        let src = data.catalog.source_id(db).unwrap();
        let dst = catalog.source_id(db).unwrap();
        for table in data.catalog.source(src).table_names() {
            let rows = data.catalog.source(src).table(table).unwrap().rows();
            let t = catalog.source_mut(dst).table_mut(table).unwrap();
            for row in rows {
                t.insert(row).unwrap();
            }
        }
    }
    let dst = catalog.source_id("DB3").unwrap();
    *catalog.source_mut(dst) = Database::new("DB3");
    let mut billing = Table::new(TableSchema::strings("billing", &["trId", "price"], &[]));
    let src = data.catalog.source_id("DB3").unwrap();
    let rows = data.catalog.source(src).table("billing").unwrap().rows();
    for (i, row) in rows.iter().enumerate() {
        if drop && i == 0 {
            continue; // unbilled treatment: inclusion constraint may break
        }
        billing.insert(row.clone()).unwrap();
        if duplicate && i == 1 {
            billing
                .insert(vec![row[0].clone(), Value::str("999")])
                .unwrap(); // duplicate trId: key may break
        }
    }
    catalog.source_mut(dst).add_table(billing).unwrap();
    catalog
}

#[test]
fn compiled_guards_agree_with_the_oracle() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_A003);
    for case in 0..24 {
        let seed = rng.gen_range(0u64..500);
        let drop = rng.gen_bool(0.5);
        let duplicate = rng.gen_bool(0.5);
        let date_idx = rng.gen_range(0usize..4);
        let catalog = corrupt_billing(seed, drop, duplicate);
        let data = HospitalConfig::tiny(seed).generate().unwrap();
        let date = &data.dates[date_idx];
        let args = [("date", Value::str(date))];

        let oracle_ok = evaluate(&aig, &catalog, &args)
            .map(|r| aig.constraints.satisfied(&r.tree))
            .unwrap();
        let guarded = evaluate(&compiled, &catalog, &args);
        match guarded {
            Ok(result) => {
                assert!(
                    oracle_ok,
                    "case {case} (seed {seed}, drop {drop}, dup {duplicate}, {date}): \
                     guards passed but the oracle found a violation"
                );
                assert!(aig.constraints.satisfied(&result.tree), "case {case}");
            }
            Err(AigError::ConstraintViolation { .. }) => {
                assert!(
                    !oracle_ok,
                    "case {case} (seed {seed}, drop {drop}, dup {duplicate}, {date}): \
                     guards aborted but the oracle found no violation"
                );
            }
            Err(other) => panic!("case {case}: unexpected error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Conceptual ≡ mediator on random datasets
// ---------------------------------------------------------------------------

#[test]
fn mediator_agrees_with_conceptual_evaluation() {
    let aig = sigma0().unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_A004);
    for case in 0..16 {
        let seed = rng.gen_range(0u64..1000);
        let date_idx = rng.gen_range(0usize..4);
        let data = HospitalConfig::tiny(seed).generate().unwrap();
        let date = &data.dates[date_idx];
        let args = [("date", Value::str(date))];
        let reference = evaluate(&aig, &data.catalog, &args).unwrap();
        let options = MediatorOptions {
            max_depth: 128,
            ..MediatorOptions::default()
        };
        let run = run_mediator(&aig, &data.catalog, &args, &options).unwrap();
        assert_eq!(
            canonical(&aig, &run.tree),
            canonical(&aig, &reference.tree),
            "case {case} (seed {seed}, {date})"
        );
    }
}
