//! Independent ego-betweenness oracle used to check every answer the
//! benchmark times. It shares no code with the engines: plain sorted
//! adjacency vectors, no hub bitmaps, no bounds.
//!
//! For an ego `p`, `CB(p) = Σ 1 / (1 + c(u, w))` over non-adjacent pairs
//! `u < w` of `N(p)`, where `c(u, w) = |N(u) ∩ N(w) ∩ N(p)|` (the `1` is the
//! path through `p` itself). Rewritten as
//! `C(d, 2) − e(N(p)) − Σ_{c(u,w) > 0} (1 − 1 / (1 + c(u, w)))`, only pairs
//! joined by a 2-path inside the ego network need enumerating.

/// Mutable undirected simple graph with sorted neighbour lists.
#[derive(Clone)]
pub struct Adjacency {
    nbrs: Vec<Vec<u32>>,
}

impl Adjacency {
    pub fn new(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut nbrs = vec![Vec::new(); n];
        for (u, v) in edges {
            nbrs[u as usize].push(v);
            nbrs[v as usize].push(u);
        }
        for list in &mut nbrs {
            list.sort_unstable();
            list.dedup();
        }
        Adjacency { nbrs }
    }

    pub fn n(&self) -> usize {
        self.nbrs.len()
    }

    /// `N(u) ∩ N(v)`, ascending.
    pub fn common(&self, u: u32, v: u32) -> Vec<u32> {
        let nv = &self.nbrs[v as usize];
        self.nbrs[u as usize]
            .iter()
            .copied()
            .filter(|x| nv.binary_search(x).is_ok())
            .collect()
    }

    /// Inserts `(u, v)`; returns whether the graph changed.
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        match self.nbrs[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.nbrs[u as usize].insert(at, v);
                let at = self.nbrs[v as usize].binary_search(&u).unwrap_err();
                self.nbrs[v as usize].insert(at, u);
                true
            }
        }
    }

    /// Deletes `(u, v)`; returns whether the graph changed.
    pub fn remove(&mut self, u: u32, v: u32) -> bool {
        match self.nbrs[u as usize].binary_search(&v) {
            Err(_) => false,
            Ok(at) => {
                self.nbrs[u as usize].remove(at);
                let at = self.nbrs[v as usize].binary_search(&u).unwrap();
                self.nbrs[v as usize].remove(at);
                true
            }
        }
    }

    /// Exact ego-betweenness of every vertex.
    pub fn scores(&self) -> Vec<f64> {
        let mut scratch = Scratch::new(self.n());
        (0..self.n() as u32)
            .map(|p| self.score(p, &mut scratch))
            .collect()
    }

    /// Exact ego-betweenness of `ego`.
    pub fn score(&self, ego: u32, scratch: &mut Scratch) -> f64 {
        let Scratch {
            slot,
            local,
            cnt,
            mark,
            touched,
        } = scratch;
        let ego = &self.nbrs[ego as usize];
        let d = ego.len();
        if d < 2 {
            return 0.0;
        }
        for (i, &u) in ego.iter().enumerate() {
            slot[u as usize] = i as u32;
        }
        // Ego-induced adjacency in local slots.
        local.resize_with(d, Vec::new);
        let mut inner_edges = 0u64;
        for (i, &u) in ego.iter().enumerate() {
            let row = &mut local[i];
            row.clear();
            row.extend(
                self.nbrs[u as usize]
                    .iter()
                    .map(|&x| slot[x as usize])
                    .filter(|&s| s != u32::MAX),
            );
            inner_edges += row.len() as u64;
        }
        inner_edges /= 2;
        cnt.clear();
        cnt.resize(d, 0);
        mark.clear();
        mark.resize(d, u32::MAX);
        let mut shared = 0.0;
        for i in 0..d {
            for &x in &local[i] {
                mark[x as usize] = i as u32;
            }
            for &x in &local[i] {
                for &w in &local[x as usize] {
                    if w as usize > i {
                        if cnt[w as usize] == 0 {
                            touched.push(w);
                        }
                        cnt[w as usize] += 1;
                    }
                }
            }
            for &w in touched.iter() {
                let c = cnt[w as usize];
                if mark[w as usize] != i as u32 {
                    shared += 1.0 - 1.0 / (1.0 + f64::from(c));
                }
                cnt[w as usize] = 0;
            }
            touched.clear();
        }
        for &u in ego {
            slot[u as usize] = u32::MAX;
        }
        let pairs = (d as u64) * (d as u64 - 1) / 2;
        (pairs - inner_edges) as f64 - shared
    }
}

/// Reusable buffers for [`Adjacency::score`]: `slot[v]` is v's index in
/// the current ego's neighbour list (or u32::MAX); `local` is the ego
/// network in those slots, and `cnt`/`mark` are indexed by them.
pub struct Scratch {
    slot: Vec<u32>,
    local: Vec<Vec<u32>>,
    cnt: Vec<u32>,
    mark: Vec<u32>,
    touched: Vec<u32>,
}

impl Scratch {
    pub fn new(n: usize) -> Self {
        Scratch {
            slot: vec![u32::MAX; n],
            local: Vec::new(),
            cnt: Vec::new(),
            mark: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// Reference scores sorted descending, for comparing ranked answers.
pub fn ranked(scores: &[f64]) -> Vec<f64> {
    let mut sorted = scores.to_vec();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    sorted
}

/// Whether a reported score matches the oracle's.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Checks a top-k answer: `min(k, n)` entries, each vertex's score exact,
/// ranked descending, and the score sequence equal to the true top-k
/// (ties may pick any of the tied vertices).
pub fn check_topk(
    entries: &[(u32, f64)],
    k: usize,
    scores: &[f64],
    ranked: &[f64],
) -> Result<(), String> {
    let want = k.min(scores.len());
    if entries.len() != want {
        return Err(format!("top-{k}: {} entries, want {want}", entries.len()));
    }
    let mut seen = std::collections::HashSet::new();
    for (rank, &(v, s)) in entries.iter().enumerate() {
        let truth = scores
            .get(v as usize)
            .ok_or_else(|| format!("top-{k}: vertex {v} out of range"))?;
        if !close(s, *truth) {
            return Err(format!("top-{k}: vertex {v} scored {s}, truth {truth}"));
        }
        if !close(s, ranked[rank]) {
            return Err(format!(
                "top-{k}: rank {rank} scored {s}, true rank score {}",
                ranked[rank]
            ));
        }
        if !seen.insert(v) {
            return Err(format!("top-{k}: vertex {v} repeated"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_definition_on_small_graphs() {
        // Star K1,3: the centre bridges all three leaf pairs alone.
        let star = Adjacency::new(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(star.scores(), vec![3.0, 0.0, 0.0, 0.0]);
        // 4-cycle 0-1-2-3: the far vertex is outside each ego network, so
        // every ego alone links its two neighbours.
        let c4 = Adjacency::new(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(c4.scores(), vec![1.0; 4]);
        // The chord (0,2) gives the pair 1-3 a second path (via 2 in ego 0,
        // via 0 in ego 2) and makes the neighbours of 1 and 3 adjacent.
        let mut g = c4.clone();
        assert!(g.insert(0, 2));
        let s = g.scores();
        assert!(close(s[0], 1.0 / 2.0) && close(s[2], 1.0 / 2.0), "{s:?}");
        assert!(close(s[1], 0.0) && close(s[3], 0.0), "{s:?}");
        assert!(g.remove(0, 2));
        assert_eq!(g.scores(), vec![1.0; 4]);
    }
}
