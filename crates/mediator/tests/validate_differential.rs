//! The one-pass validator against the per-node checker it hands failures
//! to. Valid σ0 documents from the mediator, and generated documents of a
//! DTD with a choice, get one seeded mutation each — a child dropped,
//! duplicated or retagged, text put in a sequence, a second branch under a
//! choice — and `validate` must return exactly what `validate_by_node`
//! returns: the same verdict, and on a failure the same path and reason.

use aig_core::paper::sigma0;
use aig_datagen::HospitalConfig;
use aig_mediator::{Mediator, MediatorOptions};
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::Value;
use aig_xml::{validate, validate_by_node, ContentModel, Dtd, DtdBuilder, NodeId, XmlTree};

/// One entry of a rebuilt child list.
enum Part {
    Copy(NodeId),
    Elem(String),
    Text(&'static str),
}

/// `src` rebuilt in document order, with `edited` for the children of
/// `target`.
fn mutated(src: &XmlTree, target: NodeId, edited: &[Part]) -> XmlTree {
    fn copy(src: &XmlTree, node: NodeId, out: &mut XmlTree, at: NodeId, edit: (NodeId, &[Part])) {
        let own: Vec<Part>;
        let parts = match node == edit.0 {
            true => edit.1,
            false => {
                own = src.children(node).iter().map(|&c| Part::Copy(c)).collect();
                &own
            }
        };
        for part in parts {
            match part {
                Part::Copy(child) => match src.tag(*child) {
                    Some(tag) => {
                        let copied = out.add_element(at, tag);
                        copy(src, *child, out, copied, edit);
                    }
                    None => drop(out.add_text(at, src.text(*child).unwrap())),
                },
                Part::Elem(tag) => drop(out.add_element(at, tag.as_str())),
                Part::Text(text) => drop(out.add_text(at, *text)),
            }
        }
    }
    let mut out = XmlTree::new(src.tag(src.root()).unwrap());
    let root = out.root();
    copy(src, src.root(), &mut out, root, (target, edited));
    out
}

/// A seeded mutation of `doc`'s child list at a random element, by what its
/// DTD declares there; its description.
fn mutate(doc: &XmlTree, dtd: &Dtd, rng: &mut StdRng) -> (XmlTree, String) {
    let elements: Vec<NodeId> = doc.iter().filter(|&n| doc.is_element(n)).collect();
    let target = rng.gen_range(0..elements.len());
    let node = elements[target];
    let tag = doc.tag(node).unwrap().to_string();
    let model = dtd.elem(&tag).map(|e| dtd.production(e).clone());
    let names: Vec<String> = dtd.elements().map(|e| dtd.name(e).to_string()).collect();
    let kids = doc.children(node).len();
    let (kind, at) = (rng.gen_range(0..5u32), rng.gen_range(0..kids.max(1)));
    let retag = match rng.gen_bool(0.8) {
        true => rng.pick(&names).clone(),
        false => "undeclared".to_string(),
    };
    let branch = match &model {
        Some(ContentModel::Choice(branches)) => Some(dtd.name(*rng.pick(branches)).to_string()),
        _ => None,
    };
    let what = format!("mutation {kind} of `{tag}` #{target} at {at}");
    let mut parts: Vec<Part> = doc.children(node).iter().map(|&c| Part::Copy(c)).collect();
    match kind {
        0 if kids > 0 => drop(parts.remove(at)),
        1 if kids > 0 => {
            let Part::Copy(child) = parts[at] else {
                unreachable!()
            };
            parts.insert(at, Part::Copy(child));
        }
        2 if kids > 0 => parts[at] = Part::Elem(retag),
        4 if branch.is_some() => parts.push(Part::Elem(branch.unwrap())),
        // Text in a sequence — or wherever this element is.
        _ => parts.insert(at.min(parts.len()), Part::Text("stray")),
    }
    (mutated(doc, node, &parts), what)
}

/// A document of `dtd` chosen at random: up to three children under a
/// star, one branch of a choice.
fn generate(dtd: &Dtd, rng: &mut StdRng) -> XmlTree {
    fn fill(dtd: &Dtd, elem: aig_xml::ElemId, doc: &mut XmlTree, at: NodeId, rng: &mut StdRng) {
        let add = |child, doc: &mut XmlTree, rng: &mut StdRng| {
            let node = doc.add_element(at, dtd.name(child));
            fill(dtd, child, doc, node, rng);
        };
        match dtd.production(elem) {
            ContentModel::Pcdata => drop(doc.add_text(at, format!("v{}", rng.gen_range(0..9u32)))),
            ContentModel::Empty => {}
            ContentModel::Star(child) => {
                (0..rng.gen_range(0..4u32)).for_each(|_| add(*child, doc, rng));
            }
            ContentModel::Seq(children) => children.iter().for_each(|&c| add(c, doc, rng)),
            ContentModel::Choice(branches) => add(*rng.pick(branches), doc, rng),
        }
    }
    let mut doc = XmlTree::new(dtd.name(dtd.root()));
    let root = doc.root();
    fill(dtd, dtd.root(), &mut doc, root, rng);
    doc
}

/// Columnar tests' `orders` shape: a choice under a sequence under a star.
fn orders_dtd() -> Dtd {
    let mut dtd = DtdBuilder::new();
    dtd.star("orders", "order");
    dtd.seq("order", &["id", "payment", "audit"]);
    dtd.choice("payment", &["card", "invoice"]);
    dtd.star("audit", "ref");
    for leaf in ["id", "card", "invoice", "ref"] {
        dtd.pcdata(leaf);
    }
    dtd.build("orders").unwrap()
}

#[test]
fn the_one_pass_validator_names_the_errors_the_per_node_checker_names() {
    let aig = sigma0().unwrap();
    let mut documents: Vec<(XmlTree, Dtd)> = Vec::new();
    for seed in 0..4 {
        let data = HospitalConfig::tiny(seed).generate().unwrap();
        let mediator = Mediator::new(data.catalog, &MediatorOptions::default()).unwrap();
        for date in data.dates.iter().take(2) {
            let (run, _) = mediator
                .request(&aig, &[("date", Value::str(date))])
                .unwrap();
            documents.push((run.tree, aig.dtd.clone()));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x7a11d);
    let orders = orders_dtd();
    documents.extend((0..8).map(|_| (generate(&orders, &mut rng), orders.clone())));

    let (mut valid, mut invalid) = (0, 0);
    for (n, (doc, dtd)) in documents.iter().enumerate() {
        assert_eq!(validate(doc, dtd), Ok(()), "document {n}");
        assert_eq!(validate_by_node(doc, dtd), Ok(()), "document {n}");
        for _ in 0..40 {
            let (mutant, what) = mutate(doc, dtd, &mut rng);
            let verdict = validate(&mutant, dtd);
            assert_eq!(
                verdict,
                validate_by_node(&mutant, dtd),
                "document {n}, {what}"
            );
            match verdict {
                Ok(()) => valid += 1,
                Err(_) => invalid += 1,
            }
        }
    }
    // Dropping or duplicating a starred child keeps a document valid; the
    // other mutations break it.
    assert!(
        valid > 20 && invalid > 200,
        "{valid} valid, {invalid} invalid"
    );
}
