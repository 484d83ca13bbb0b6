//! Tokenized inverted index over the inventory's installed names.
//!
//! The paper's reduction step checks *every* eIoC against the full
//! infrastructure inventory (Section III-C1). The reference matcher in
//! [`Inventory::match_application_linear`] does that as a nodes ×
//! installed-names scan with per-call lowercasing and O(w²) word-subset
//! checks; at production inventory sizes that scan dominates the
//! enrich→reduce hot path. This module precomputes the scan once:
//!
//! * every installed application/OS name is normalized (trimmed,
//!   lowercased) and tokenized on whitespace,
//! * tokens are interned to dense ids, and each *distinct token set*
//!   becomes one [`NameEntry`] carrying a [`SlotBitset`] of the nodes
//!   that installed a name with exactly those tokens,
//! * an inverted index `token id → name-entry ids` turns a candidate
//!   lookup into a few hash probes plus bitset unions.
//!
//! The word-subset semantics are preserved exactly: a candidate with
//! distinct word set `W` matches an installed name with token set `V`
//! iff `V ⊆ W` or `W ⊆ V`. Both directions fall out of one counting
//! pass — for every entry touched by a candidate token, the number of
//! shared tokens `|V ∩ W|` equals `|V|` exactly when `V ⊆ W`, and
//! equals `|W|` exactly when `W ⊆ V` (unknown candidate words keep the
//! count below `|W|`, so `W ⊆ V` can only fire when every candidate
//! word is a known token). Common keywords short-circuit to all nodes
//! before any token work, mirroring the paper's "common keyword → all
//! nodes" rule, and empty-word names/candidates reproduce the
//! reference matcher's exact-equality fallback.
//!
//! The index is built lazily by [`Inventory::index`] and invalidated by
//! the inventory's generation counter whenever the inventory mutates.

use std::collections::{HashMap, HashSet};

use cais_common::SlotBitset;

use crate::inventory::{ApplicationMatch, Inventory, NodeId};

/// One distinct installed token set and the nodes carrying it.
#[derive(Debug, Clone)]
struct NameEntry {
    /// Number of distinct tokens in the installed name (`|V|`, ≥ 1).
    token_count: u32,
    /// Nodes that installed a name with exactly this token set.
    nodes: SlotBitset,
}

/// The precomputed match index over one inventory snapshot.
///
/// Built by [`Inventory::index`]; queries are equivalent to the linear
/// reference matcher (a property the `index_equivalence` integration
/// test proves over arbitrary inventories).
#[derive(Debug, Clone)]
pub struct MatchIndex {
    /// Bit slot → node id, ascending.
    slots: Vec<NodeId>,
    /// Interned token → dense token id.
    tokens: HashMap<String, u32>,
    /// Token id → name-entry ids containing that token (ascending).
    postings: Vec<Vec<u32>>,
    /// Distinct installed token sets.
    entries: Vec<NameEntry>,
    /// Nodes installing a name that normalizes to the empty string;
    /// these match exactly the empty-word candidates.
    empty_name_nodes: SlotBitset,
    /// Normalized common keywords (exact full-string match → all nodes).
    common_keywords: HashSet<String>,
    /// Every slot set; the common-keyword result.
    all_nodes: SlotBitset,
    /// Distinct normalized application names, sorted (OS excluded),
    /// for description scanning and [`Inventory::all_applications`].
    app_names: Vec<String>,
}

impl MatchIndex {
    /// Builds the index from an inventory snapshot.
    pub fn build(inventory: &Inventory) -> Self {
        let slots: Vec<NodeId> = inventory.nodes().map(|n| n.id).collect();
        let mut all_nodes = SlotBitset::new();
        let mut empty_name_nodes = SlotBitset::new();
        let mut tokens: HashMap<String, u32> = HashMap::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut entries: Vec<NameEntry> = Vec::new();
        let mut entry_of_signature: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut app_names: Vec<String> = Vec::new();

        for (slot, node) in inventory.nodes().enumerate() {
            // Slot `i` is the `i`-th node in id order, so ascending bit
            // iteration yields node ids in the linear matcher's order.
            let slot = u32::try_from(slot).expect("node count fits u32");
            all_nodes.set(slot);
            let installed = node
                .applications
                .iter()
                .map(|app| (app, true))
                .chain(std::iter::once((&node.operating_system, false)));
            for (name, is_application) in installed {
                let normalized = crate::inventory::normalize_name(name);
                if is_application {
                    app_names.push(normalized.clone());
                }
                let mut signature: Vec<u32> = normalized
                    .split_whitespace()
                    .map(|word| {
                        if let Some(&id) = tokens.get(word) {
                            return id;
                        }
                        let id = u32::try_from(postings.len()).expect("token count fits u32");
                        tokens.insert(word.to_owned(), id);
                        postings.push(Vec::new());
                        id
                    })
                    .collect();
                signature.sort_unstable();
                signature.dedup();
                if signature.is_empty() {
                    empty_name_nodes.set(slot);
                    continue;
                }
                let entry = *entry_of_signature
                    .entry(signature.clone())
                    .or_insert_with(|| {
                        let id = u32::try_from(entries.len()).expect("entry count fits u32");
                        for &token in &signature {
                            postings[token as usize].push(id);
                        }
                        entries.push(NameEntry {
                            token_count: u32::try_from(signature.len())
                                .expect("token set fits u32"),
                            nodes: SlotBitset::new(),
                        });
                        id
                    });
                entries[entry as usize].nodes.set(slot);
            }
        }
        app_names.sort_unstable();
        app_names.dedup();

        let common_keywords = inventory
            .common_keywords()
            .iter()
            .map(|k| crate::inventory::normalize_name(k))
            .collect();

        MatchIndex {
            slots,
            tokens,
            postings,
            entries,
            empty_name_nodes,
            common_keywords,
            all_nodes,
            app_names,
        }
    }

    /// Number of distinct interned tokens.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Number of distinct installed token sets.
    pub fn name_count(&self) -> usize {
        self.entries.len()
    }

    /// Distinct normalized application names, sorted (OS names excluded).
    pub fn application_names(&self) -> &[String] {
        &self.app_names
    }

    /// Matches one candidate, implementing the paper's three-way rule:
    /// no match → empty; common keyword → all nodes; otherwise → the
    /// owning nodes.
    pub fn match_application(&self, candidate: &str) -> ApplicationMatch {
        let needle = candidate.trim().to_ascii_lowercase();
        if self.common_keywords.contains(&needle) {
            return ApplicationMatch::from_parts(self.slots.clone(), true);
        }
        let mut acc = SlotBitset::new();
        self.match_words_into(&needle, &mut acc);
        ApplicationMatch::from_parts(self.node_ids(&acc), false)
    }

    /// Matches several candidates at once, unioning the results.
    pub fn match_any<S: AsRef<str>>(&self, candidates: &[S]) -> ApplicationMatch {
        let mut acc = SlotBitset::new();
        let mut common = false;
        for candidate in candidates {
            let needle = candidate.as_ref().trim().to_ascii_lowercase();
            if self.common_keywords.contains(&needle) {
                common = true;
                acc.union_with(&self.all_nodes);
            } else {
                self.match_words_into(&needle, &mut acc);
            }
        }
        ApplicationMatch::from_parts(self.node_ids(&acc), common)
    }

    /// Unions every node whose installed token set `V` satisfies
    /// `V ⊆ W ∨ W ⊆ V` against the candidate's distinct word set `W`.
    fn match_words_into(&self, needle: &str, acc: &mut SlotBitset) {
        let mut words: Vec<&str> = needle.split_whitespace().collect();
        words.sort_unstable();
        words.dedup();
        if words.is_empty() {
            // The reference matcher's `a == b` fallback: an empty-word
            // candidate matches exactly the empty-word installed names.
            acc.union_with(&self.empty_name_nodes);
            return;
        }
        let total = u32::try_from(words.len()).expect("candidate words fit u32");
        let mut shared: HashMap<u32, u32> = HashMap::new();
        for word in words {
            if let Some(&token) = self.tokens.get(word) {
                for &entry in &self.postings[token as usize] {
                    *shared.entry(entry).or_insert(0) += 1;
                }
            }
        }
        for (&entry, &count) in &shared {
            let entry = &self.entries[entry as usize];
            if count == entry.token_count || count == total {
                acc.union_with(&entry.nodes);
            }
        }
    }

    /// Materializes a bitset as ascending node ids.
    fn node_ids(&self, acc: &SlotBitset) -> Vec<NodeId> {
        acc.ones().map(|slot| self.slots[slot as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_paper_table3() {
        let inventory = Inventory::paper_table3();
        let index = MatchIndex::build(&inventory);
        // "apache" ⊆ {"apache","storm"} etc. only on node 4.
        assert_eq!(index.match_application("apache").node_ids(), &[NodeId(4)]);
        // Both directions: "apache struts" matches installed "apache".
        assert_eq!(
            index.match_application("Apache Struts").node_ids(),
            &[NodeId(4)]
        );
        let linux = index.match_application("Linux");
        assert!(linux.is_common_keyword());
        assert_eq!(linux.node_ids().len(), 4);
        assert!(!index.match_application("notepad").is_match());
        assert_eq!(index.match_application("ubuntu").node_ids().len(), 3);
    }

    #[test]
    fn shared_token_sets_collapse_into_one_entry() {
        let inventory = Inventory::paper_table3();
        let index = MatchIndex::build(&inventory);
        // "ubuntu" is installed on three nodes and is also an OS name;
        // the token set exists once, carried by a three-node bitset.
        assert!(index.name_count() < 20);
        assert!(index.token_count() >= 10);
    }

    #[test]
    fn application_names_exclude_operating_systems() {
        let mut builder = Inventory::builder();
        builder
            .node("host", crate::inventory::NodeType::Server, "freebsd")
            .application("nginx");
        let inventory = builder.build();
        let index = MatchIndex::build(&inventory);
        assert_eq!(index.application_names(), &["nginx".to_owned()]);
        // …but the OS still matches as an installed name.
        assert_eq!(index.match_application("freebsd").node_ids().len(), 1);
    }
}
