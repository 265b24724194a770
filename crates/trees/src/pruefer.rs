//! Prüfer sequences: the classic bijection between labeled trees on `n`
//! nodes and sequences in `{0, …, n−1}^(n−2)`.
//!
//! Uniform sampling over the `n^(n−1)` labeled **rooted** trees — the
//! adversary pool `T_n` of the paper — follows by drawing a uniform Prüfer
//! sequence (a uniform labeled tree among `n^(n−2)`) and then a uniform
//! root among the `n` nodes.

use crate::tree::{reroot_parents, NodeId, RootedTree, TreeError};

/// Decodes a Prüfer sequence into the undirected edge list of the unique
/// labeled tree on `n = seq.len() + 2` nodes.
///
/// Runs in O(n) with the standard pointer technique.
///
/// # Panics
///
/// Panics if any sequence entry is `≥ seq.len() + 2`.
///
/// # Examples
///
/// ```
/// use treecast_trees::pruefer::decode;
/// // The empty sequence is the single edge on two nodes.
/// assert_eq!(decode(&[]), vec![(0, 1)]);
/// // A constant sequence is a star.
/// let edges = decode(&[3, 3]);
/// assert!(edges.iter().all(|&(a, b)| a == 3 || b == 3));
/// ```
pub fn decode(seq: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let n = seq.len() + 2;
    for &s in seq {
        assert!(s < n, "Prüfer entry {s} out of range for n = {n}");
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Every entry is in range, so the scan cannot stop early.
    let (Ok(last) | Err((last, _))) = leaf_scan(seq, |leaf, s| edges.push((leaf, s)));
    edges.push((last, n - 1));
    edges
}

/// The decoder's leaf removal, in O(n) with the standard pointer
/// technique: calls `attach(leaf, s)` for each removed leaf and its
/// Prüfer neighbour `s`, then returns the last leaf, which joins `n − 1`.
/// Stops at the first entry `s ≥ n` with `Err((leaf, s))`.
fn leaf_scan(
    seq: &[NodeId],
    mut attach: impl FnMut(NodeId, NodeId),
) -> Result<NodeId, (NodeId, NodeId)> {
    let n = seq.len() + 2;
    let mut degree = vec![1usize; n];
    for &s in seq.iter().filter(|&&s| s < n) {
        degree[s] += 1;
    }
    // `ptr` scans for the smallest fresh leaf; `leaf` may dip below `ptr`
    // when removing an edge re-leafs a smaller node. Up to the first
    // out-of-range entry the scan is that of a valid sequence, so it
    // stays in bounds until it reports that entry.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &s in seq {
        if s >= n {
            return Err((leaf, s));
        }
        attach(leaf, s);
        degree[s] -= 1;
        if degree[s] == 1 && s < ptr {
            leaf = s;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    Ok(leaf)
}

/// Encodes the undirected skeleton of a labeled tree as its Prüfer
/// sequence.
///
/// The orientation (root) of the input is ignored: Prüfer codes describe
/// unrooted trees.
///
/// # Examples
///
/// ```
/// use treecast_trees::{generators, pruefer};
/// let t = generators::star(5); // center 0
/// assert_eq!(pruefer::encode(&t), vec![0, 0, 0]);
/// ```
pub fn encode(tree: &RootedTree) -> Vec<NodeId> {
    let n = tree.n();
    if n <= 2 {
        return Vec::new();
    }
    // Undirected degrees and neighbor sets via parent pointers.
    let mut degree = vec![0usize; n];
    for v in 0..n {
        if let Some(p) = tree.parent(v) {
            degree[v] += 1;
            degree[p] += 1;
        }
    }
    // To delete leaves we need undirected adjacency; emulate with parent +
    // children and a removed mask.
    let mut removed = vec![false; n];
    let neighbor = |v: NodeId, removed: &[bool], tree: &RootedTree| -> NodeId {
        if let Some(p) = tree.parent(v) {
            if !removed[p] {
                return p;
            }
        }
        *tree
            .children(v)
            .iter()
            .find(|&&c| !removed[c])
            // analyze: allow(panic): Pruefer decode invariant: a live leaf's parent keeps a live child
            .expect("a live leaf has exactly one live neighbor")
    };
    let mut seq = Vec::with_capacity(n - 2);
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for _ in 0..n - 2 {
        let nb = neighbor(leaf, &removed, tree);
        seq.push(nb);
        removed[leaf] = true;
        degree[nb] -= 1;
        if degree[nb] == 1 && nb < ptr {
            leaf = nb;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    seq
}

/// Decodes a Prüfer sequence directly into a [`RootedTree`] rooted at
/// `root`, in one pass and without an intermediate edge list.
///
/// Every leaf the decoder removes hangs off its Prüfer neighbour in the
/// tree rooted at `n − 1` (the node the decoder never removes), so the
/// parent array of that rooting falls out of the decode loop; flipping
/// the path from `root` up to `n − 1` then re-roots it. The labeled tree
/// is unique, so the result equals
/// `RootedTree::from_undirected_edges(n, &decode(seq), root)`.
///
/// # Errors
///
/// Returns [`TreeError::ParentOutOfRange`] if `root` is out of range
/// (naming `root` as both node and parent), or if a sequence entry is
/// `≥ seq.len() + 2` (naming the leaf that entry would adopt).
///
/// # Examples
///
/// ```
/// use treecast_trees::pruefer::decode_rooted;
/// // A constant sequence is a star; rooted at a leaf, the center is its child.
/// let t = decode_rooted(&[3, 3, 3], 0)?;
/// assert_eq!(t.children(0), &[3]);
/// assert_eq!(t.children(3), &[1, 2, 4]);
/// assert!(decode_rooted(&[5, 0], 0).is_err());
/// # Ok::<(), treecast_trees::TreeError>(())
/// ```
pub fn decode_rooted(seq: &[NodeId], root: NodeId) -> Result<RootedTree, TreeError> {
    let n = seq.len() + 2;
    if root >= n {
        return Err(TreeError::ParentOutOfRange {
            node: root,
            parent: root,
            n,
        });
    }
    let mut parent = vec![None; n];
    let last = leaf_scan(seq, |leaf, s| parent[leaf] = Some(s))
        .map_err(|(node, parent)| TreeError::ParentOutOfRange { node, parent, n })?;
    parent[last] = Some(n - 1);
    reroot_parents(&mut parent, root);
    RootedTree::from_parents(parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn decode_empty_is_edge() {
        assert_eq!(decode(&[]), vec![(0, 1)]);
    }

    #[test]
    fn decode_star() {
        let edges = decode(&[0, 0, 0]);
        assert_eq!(edges.len(), 4);
        let mut non_center: Vec<_> = edges
            .iter()
            .map(|&(a, b)| if a == 0 { b } else { a })
            .collect();
        non_center.sort_unstable();
        assert_eq!(non_center, vec![1, 2, 3, 4]);
    }

    #[test]
    fn encode_decode_roundtrip_families() {
        for t in [
            generators::path(7),
            generators::star(7),
            generators::broom(7, 3),
            generators::caterpillar(7, 4),
            generators::spider(7, 3),
            generators::complete_binary(7),
        ] {
            let seq = encode(&t);
            assert_eq!(seq.len(), 5);
            let back = decode_rooted(&seq, t.root()).unwrap();
            // Same undirected skeleton ⇒ identical parent structure once
            // re-rooted at the original root.
            assert_eq!(back.parents(), t.parents(), "tree {t}");
        }
    }

    #[test]
    fn decode_all_sequences_n4_gives_16_distinct_trees() {
        // 4^2 = 16 labeled trees on 4 nodes.
        let mut seen = std::collections::HashSet::new();
        for a in 0..4 {
            for b in 0..4 {
                let mut edges = decode(&[a, b]);
                for e in &mut edges {
                    *e = (e.0.min(e.1), e.0.max(e.1));
                }
                edges.sort_unstable();
                seen.insert(edges);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn path_roundtrip_every_root() {
        let t = generators::path(6);
        let seq = encode(&t);
        for root in 0..6 {
            let rt = decode_rooted(&seq, root).unwrap();
            assert_eq!(rt.root(), root);
            assert!(
                rt.is_path() || root != 0 && root != 5,
                "re-rooted path stays a path only from the ends"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_bad_entry() {
        decode(&[5, 0]);
    }

    /// Reference construction: the edge list, oriented by BFS from `root`.
    fn via_edges(seq: &[NodeId], root: NodeId) -> RootedTree {
        RootedTree::from_undirected_edges(seq.len() + 2, &decode(seq), root).unwrap()
    }

    #[test]
    fn decode_rooted_matches_the_edge_list_route_exhaustively() {
        for n in 2..=7usize {
            let len = n - 2;
            let mut seq = vec![0; len];
            let mut count = 0;
            loop {
                for root in 0..n {
                    assert_eq!(
                        decode_rooted(&seq, root).unwrap(),
                        via_edges(&seq, root),
                        "seq {seq:?} root {root}"
                    );
                }
                count += 1;
                // Odometer step through {0, …, n−1}^(n−2).
                match seq.iter().rposition(|&s| s + 1 < n) {
                    Some(i) => {
                        seq[i] += 1;
                        seq[i + 1..].fill(0);
                    }
                    None => break,
                }
            }
            assert_eq!(count, n.pow(len as u32), "n = {n}");
        }
    }

    #[test]
    fn decode_rooted_matches_the_edge_list_route_seeded() {
        use rand::{Rng, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E5);
        for n in [64usize, 1000] {
            for _ in 0..16 {
                let seq: Vec<NodeId> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
                let root = rng.gen_range(0..n);
                assert_eq!(decode_rooted(&seq, root).unwrap(), via_edges(&seq, root));
            }
        }
    }

    #[test]
    fn decode_rooted_rejects_bad_entries_and_roots() {
        // n = 4; the first leaf (1) would adopt the out-of-range 5.
        assert_eq!(
            decode_rooted(&[5, 0], 0),
            Err(TreeError::ParentOutOfRange {
                node: 1,
                parent: 5,
                n: 4
            })
        );
        // An out-of-range entry after valid ones, and at the last slot.
        assert!(decode_rooted(&[0, 0, 9], 2).is_err());
        assert!(decode_rooted(&[4, 3, 2, 1, 0, 8], 0).is_err());
        assert!(decode_rooted(&[usize::MAX; 5], 0).is_err());
        assert_eq!(
            decode_rooted(&[0, 0], 4),
            Err(TreeError::ParentOutOfRange {
                node: 4,
                parent: 4,
                n: 4
            })
        );
    }
}
