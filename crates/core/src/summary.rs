//! Effect summaries: the ground footprint of an operation execution, and
//! the convergence-rule merge of two concurrent footprints (§2.1, §3.2).

use ipa_solver::{AtomId, AtomTable, GroundError, Grounder};
use ipa_spec::{ConvergenceRules, EffectKind, GroundEffect};
use std::collections::BTreeMap;

/// The most last-writer-wins contested atoms [`EffectSummary::merge`]
/// enumerates the `2^n` outcomes of.
pub const MAX_LWW_CONTESTED: usize = 6;

/// The net effect of executing an operation with concrete arguments:
/// boolean assignments (wildcards expanded over the universe) and numeric
/// deltas, keyed on the grounder's atom ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectSummary {
    pub assigns: BTreeMap<AtomId, bool>,
    pub deltas: BTreeMap<AtomId, i64>,
}

impl EffectSummary {
    /// Summarize ground effects, expanding wildcard patterns over the
    /// grounder's universe (this is the *symbolic* expansion used by the
    /// analysis: a wildcard effect touches every distinguished element).
    pub fn from_effects(
        effects: &[GroundEffect],
        grounder: &Grounder<'_>,
    ) -> Result<Self, GroundError> {
        let mut s = EffectSummary::default();
        s.apply(effects, grounder, |_| {})?;
        Ok(s)
    }

    /// Apply `effects` after the ones summarised already, as if they had
    /// been listed after them in [`EffectSummary::from_effects`]; each atom
    /// an effect writes is passed to `written`.
    pub fn apply(
        &mut self,
        effects: &[GroundEffect],
        grounder: &Grounder<'_>,
        mut written: impl FnMut(AtomId),
    ) -> Result<(), GroundError> {
        for e in effects {
            for t in grounder.expand_count_pattern(&e.atom)? {
                self.write(e.kind, t);
                written(t);
            }
        }
        Ok(())
    }

    /// Apply one ground effect of kind `kind` to the atom `t`: an
    /// assignment overwrites, a delta adds.
    pub fn write(&mut self, kind: EffectKind, t: AtomId) {
        match kind {
            EffectKind::SetTrue => {
                self.assigns.insert(t, true);
            }
            EffectKind::SetFalse => {
                self.assigns.insert(t, false);
            }
            EffectKind::Inc(k) => *self.deltas.entry(t).or_insert(0) += k,
            EffectKind::Dec(k) => *self.deltas.entry(t).or_insert(0) -= k,
        }
    }

    /// Atoms on which the two summaries write opposing boolean values —
    /// the trigger for consulting convergence rules (Alg. 1, line 8).
    pub fn contested_atoms(&self, other: &EffectSummary) -> Vec<AtomId> {
        self.assigns
            .iter()
            .filter_map(|(&a, &v)| match other.assigns.get(&a) {
                Some(&w) if w != v => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Merge two concurrent summaries under the given convergence rules;
    /// `atoms` names each atom's predicate.
    ///
    /// Returns one merged summary per possible outcome: a single summary
    /// when every contested atom's predicate has a deterministic policy
    /// (add-wins / rem-wins), and `2^n` alternatives when `n` contested
    /// atoms resolve by last-writer-wins (either value may survive
    /// depending on timestamps). `Err(n)` when `n` exceeds
    /// [`MAX_LWW_CONTESTED`].
    pub fn merge(
        &self,
        other: &EffectSummary,
        rules: &ConvergenceRules,
        atoms: &AtomTable,
    ) -> Result<Vec<EffectSummary>, usize> {
        let mut base = EffectSummary::default();
        let mut lww_contested: Vec<AtomId> = Vec::new();

        let mut ids: Vec<AtomId> = self
            .assigns
            .keys()
            .chain(other.assigns.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for a in ids {
            let v = match (self.assigns.get(&a), other.assigns.get(&a)) {
                (Some(&x), Some(&y)) if x != y => {
                    match rules.policy(&atoms.predicate(a)).winner() {
                        Some(w) => Some(w),
                        None => {
                            lww_contested.push(a);
                            None
                        }
                    }
                }
                (Some(&x), _) => Some(x),
                (_, Some(&y)) => Some(y),
                (None, None) => unreachable!("atom came from one of the maps"),
            };
            if let Some(v) = v {
                base.assigns.insert(a, v);
            }
        }

        // Numeric deltas commute: sum them.
        for (&a, &d) in self.deltas.iter().chain(other.deltas.iter()) {
            *base.deltas.entry(a).or_insert(0) += d;
        }
        // (chain visits self then other; the fold above double-counts
        // nothing because each map's entries are distinct iterations)

        if lww_contested.is_empty() {
            return Ok(vec![base]);
        }
        if lww_contested.len() > MAX_LWW_CONTESTED {
            return Err(lww_contested.len());
        }
        let mut out = Vec::with_capacity(1 << lww_contested.len());
        for bits in 0u32..(1 << lww_contested.len()) {
            let mut alt = base.clone();
            for (i, &a) in lww_contested.iter().enumerate() {
                alt.assigns.insert(a, bits >> i & 1 == 1);
            }
            out.push(alt);
        }
        Ok(out)
    }

    /// True when the summary writes nothing.
    pub fn is_empty(&self) -> bool {
        self.assigns.is_empty() && self.deltas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_solver::Universe;
    use ipa_spec::{Constant, ConvergencePolicy, PredicateDecl, Sort, Symbol};
    use std::collections::BTreeMap as Map;

    fn id(g: &Grounder<'_>, pred: &str, args: &[Constant]) -> AtomId {
        g.atoms().id(&Symbol::new(pred), args)
    }

    fn tourn(n: &str) -> Constant {
        Constant::new(n, Sort::new("Tournament"))
    }
    fn player(n: &str) -> Constant {
        Constant::new(n, Sort::new("Player"))
    }

    fn setup() -> (Universe, Map<Symbol, PredicateDecl>, Map<Symbol, i64>) {
        let u: Universe = [player("P1"), player("P2"), tourn("T1")]
            .into_iter()
            .collect();
        let mut d = Map::new();
        for decl in [
            PredicateDecl::boolean("tournament", vec![Sort::new("Tournament")]),
            PredicateDecl::boolean(
                "enrolled",
                vec![Sort::new("Player"), Sort::new("Tournament")],
            ),
            PredicateDecl::numeric("stock", vec![Sort::new("Tournament")]),
        ] {
            d.insert(decl.name.clone(), decl);
        }
        (u, d, Map::new())
    }

    #[test]
    fn wildcard_effects_expand_over_universe() {
        let (u, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let eff = GroundEffect {
            atom: ipa_spec::Atom::new(
                "enrolled",
                vec![ipa_spec::Term::Wildcard, ipa_spec::Term::Const(tourn("T1"))],
            ),
            kind: EffectKind::SetFalse,
        };
        let s = EffectSummary::from_effects(&[eff], &g).unwrap();
        assert_eq!(s.assigns.len(), 2); // P1 and P2
        assert!(s.assigns.values().all(|&v| !v));
    }

    #[test]
    fn merge_add_wins_resolves_contest() {
        let (u, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let t_atom = ipa_spec::Atom::new("tournament", vec![ipa_spec::Term::Const(tourn("T1"))]);
        let s1 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: t_atom.clone(),
                kind: EffectKind::SetTrue,
            }],
            &g,
        )
        .unwrap();
        let s2 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: t_atom.clone(),
                kind: EffectKind::SetFalse,
            }],
            &g,
        )
        .unwrap();
        let rules = ConvergenceRules::new().with("tournament", ConvergencePolicy::AddWins);
        let merged = s1.merge(&s2, &rules, g.atoms()).unwrap();
        assert_eq!(merged.len(), 1);
        let ga = id(&g, "tournament", &[tourn("T1")]);
        assert_eq!(merged[0].assigns.get(&ga), Some(&true));

        let rules = ConvergenceRules::new().with("tournament", ConvergencePolicy::RemWins);
        let merged = s1.merge(&s2, &rules, g.atoms()).unwrap();
        assert_eq!(merged[0].assigns.get(&ga), Some(&false));
    }

    #[test]
    fn merge_lww_enumerates_alternatives() {
        let (u, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let t_atom = ipa_spec::Atom::new("tournament", vec![ipa_spec::Term::Const(tourn("T1"))]);
        let s1 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: t_atom.clone(),
                kind: EffectKind::SetTrue,
            }],
            &g,
        )
        .unwrap();
        let s2 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: t_atom,
                kind: EffectKind::SetFalse,
            }],
            &g,
        )
        .unwrap();
        let rules = ConvergenceRules::new().with("tournament", ConvergencePolicy::LastWriterWins);
        let merged = s1.merge(&s2, &rules, g.atoms()).unwrap();
        assert_eq!(merged.len(), 2);
        let ga = id(&g, "tournament", &[tourn("T1")]);
        let values: Vec<bool> = merged
            .iter()
            .map(|m| *m.assigns.get(&ga).unwrap())
            .collect();
        assert!(values.contains(&true) && values.contains(&false));
    }

    #[test]
    fn numeric_deltas_sum() {
        let (u, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let stock = ipa_spec::Atom::new("stock", vec![ipa_spec::Term::Const(tourn("T1"))]);
        let s1 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: stock.clone(),
                kind: EffectKind::Dec(1),
            }],
            &g,
        )
        .unwrap();
        let s2 = EffectSummary::from_effects(
            &[GroundEffect {
                atom: stock,
                kind: EffectKind::Dec(2),
            }],
            &g,
        )
        .unwrap();
        let merged = s1.merge(&s2, &ConvergenceRules::new(), g.atoms()).unwrap();
        let ga = id(&g, "stock", &[tourn("T1")]);
        assert_eq!(merged[0].deltas.get(&ga), Some(&-3));
    }

    #[test]
    fn merge_refuses_more_lww_alternatives_than_it_enumerates() {
        let mut u: Universe = [tourn("T1")].into_iter().collect();
        for i in 1..=7 {
            u.add(player(&format!("P{i}")));
        }
        let (_, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let all = |kind| GroundEffect {
            atom: ipa_spec::Atom::new(
                "enrolled",
                vec![ipa_spec::Term::Wildcard, ipa_spec::Term::Const(tourn("T1"))],
            ),
            kind,
        };
        let s1 = EffectSummary::from_effects(&[all(EffectKind::SetTrue)], &g).unwrap();
        let s2 = EffectSummary::from_effects(&[all(EffectKind::SetFalse)], &g).unwrap();
        let lww = ConvergenceRules::new().with("enrolled", ConvergencePolicy::LastWriterWins);
        assert_eq!(s1.merge(&s2, &lww, g.atoms()), Err(7));
        let aw = ConvergenceRules::new().with("enrolled", ConvergencePolicy::AddWins);
        assert_eq!(s1.merge(&s2, &aw, g.atoms()).unwrap().len(), 1);
    }

    #[test]
    fn contested_atoms_detection() {
        let ga = AtomId(0);
        let mut s1 = EffectSummary::default();
        s1.assigns.insert(ga, true);
        let mut s2 = EffectSummary::default();
        s2.assigns.insert(ga, false);
        assert_eq!(s1.contested_atoms(&s2), vec![ga]);
        assert_eq!(s2.contested_atoms(&s1), vec![ga]);
        assert!(s1.contested_atoms(&s1).is_empty());
    }

    #[test]
    fn sequential_effects_within_op_last_write_wins() {
        let (u, d, n) = setup();
        let g = Grounder::new(&u, &d, &n);
        let t_atom = ipa_spec::Atom::new("tournament", vec![ipa_spec::Term::Const(tourn("T1"))]);
        // Within a single operation, later effects overwrite earlier ones.
        let s = EffectSummary::from_effects(
            &[
                GroundEffect {
                    atom: t_atom.clone(),
                    kind: EffectKind::SetFalse,
                },
                GroundEffect {
                    atom: t_atom,
                    kind: EffectKind::SetTrue,
                },
            ],
            &g,
        )
        .unwrap();
        let ga = id(&g, "tournament", &[tourn("T1")]);
        assert_eq!(s.assigns.get(&ga), Some(&true));
    }
}
