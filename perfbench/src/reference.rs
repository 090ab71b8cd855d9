//! Independent answers the benchmark checks the engines against. They
//! work on vertex indices with plain breadth-first search and share no
//! code with the engines.

use std::collections::{BTreeSet, VecDeque};

/// `reach[x]` = vertices reachable from `x` by a path of one or more
/// edges (so `x ∈ reach[x]` only when `x` lies on a cycle).
pub fn reach(n: usize, edges: &[(usize, usize)]) -> Vec<BTreeSet<usize>> {
    let mut succ = vec![Vec::new(); n];
    for &(a, b) in edges {
        succ[a].push(b);
    }
    (0..n)
        .map(|x| {
            let mut seen = BTreeSet::new();
            let mut queue: VecDeque<usize> = succ[x].iter().copied().collect();
            while let Some(y) = queue.pop_front() {
                if seen.insert(y) {
                    queue.extend(succ[y].iter().copied());
                }
            }
            seen
        })
        .collect()
}

/// The transitive closure as index pairs.
pub fn closure(reach: &[BTreeSet<usize>]) -> BTreeSet<(usize, usize)> {
    reach
        .iter()
        .enumerate()
        .flat_map(|(x, ys)| ys.iter().map(move |&y| (x, y)))
        .collect()
}

/// `U(x,y) :- E(x,y), ¬T(y,x)`: the edges not closing a cycle.
pub fn one_way(edges: &[(usize, usize)], reach: &[BTreeSet<usize>]) -> BTreeSet<(usize, usize)> {
    edges
        .iter()
        .copied()
        .filter(|&(x, y)| !reach[y].contains(&x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_on_a_small_cyclic_graph() {
        // 0 → 1 → 2 → 1, 3 isolated
        let edges = [(0, 1), (1, 2), (2, 1)];
        let r = reach(4, &edges);
        assert_eq!(r[0], BTreeSet::from([1, 2]));
        assert_eq!(r[1], BTreeSet::from([1, 2]));
        assert!(r[3].is_empty());
        assert_eq!(closure(&r).len(), 6);
        // 1 → 2 and 2 → 1 close a cycle; 0 → 1 does not
        assert_eq!(one_way(&edges, &r), BTreeSet::from([(0, 1)]));
    }
}
