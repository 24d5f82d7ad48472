//! The Barnes-Hut octree: recursive spatial decomposition of the 3-D domain with
//! centre-of-mass summaries in every internal cell.
//!
//! The tree is the *auxiliary* data structure of a Category-1 application: it encodes
//! physical proximity, is rebuilt every iteration, and drives both the force evaluation
//! (partial traversals with the opening-angle criterion) and the computation partition
//! (an in-order traversal hands out physically contiguous groups of particles).  The
//! particle array itself is left untouched by tree construction — which is exactly why
//! its memory order can be so bad, and why reordering it is safe.
//!
//! Because the tree is rebuilt every iteration, its construction cost is on the trace
//! generation hot path.  Leaf body lists are therefore *not* stored as one `Vec<u32>`
//! per leaf (thousands of small heap allocations per rebuild): during construction each
//! leaf chains its bodies through a single `next[body]` array, and one pass at the end
//! packs every leaf's bodies, in insertion order, into shared arrays addressed by
//! `(start, len)` ranges.  A rebuild thus performs O(1) allocations regardless of leaf
//! count.
//!
//! **The force walk.**  That same final pass lays the tree out a second time, as the
//! flat array the force kernel walks ([`Octree::walk`]): the nodes in preorder with
//! the children of each node in *descending* octant order.  This is the order a stack
//! traversal visits them — it pushes a node's children in ascending octant order, so it
//! pops (and descends into) the highest octant first.  Each [`WalkNode`] carries its
//! `skip` index, one past the end of its subtree, so the kernel needs no stack: an
//! opened internal node steps to the next index, every other node jumps to `skip`.
//! Each leaf's bodies are packed in walk order too, ids next to (position, mass)
//! copies, so the kernel streams through contiguous memory instead of gathering from
//! the randomly ordered body array.  The walk visits the same nodes and does the same
//! floating-point operations in the same order as the stack traversal, so the two
//! give the same forces bit for bit (a proptest in `barnes_hut` holds the kernel to the
//! stack traversal).
//!
//! Reversing the walk's leaf sequence gives the leaves in ascending octant order, which
//! is the in-order sequence the costzones partition hands out
//! ([`Octree::inorder_bodies`]).

use crate::body::Body;
use crate::vec3::Vec3;

/// Index of a node inside the [`Octree`]'s node arena.
pub type NodeId = u32;

/// Sentinel for "no body" in the construction-time chains.
const NO_BODY: u32 = u32::MAX;

/// One node of the octree.
#[derive(Debug, Clone)]
pub struct OctNode {
    /// Geometric centre of the cell.
    pub center: Vec3,
    /// Half the side length of the (cubic) cell.
    pub half: f64,
    /// Total mass of the bodies contained in the subtree.
    pub mass: f64,
    /// Centre of mass of the subtree.
    pub com: Vec3,
    /// Children (for internal nodes) — up to 8 octants, `None` if empty.
    pub children: [Option<NodeId>; 8],
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Start of this leaf's body range in the shared arena (see
    /// [`Octree::leaf_bodies`]); 0 for internal nodes.
    body_start: u32,
    /// Length of this leaf's body range; 0 for internal nodes.
    body_len: u32,
}

/// One node of the force walk (see the module docs): the octree in the order a
/// stack traversal visits it.
#[derive(Debug, Clone, Copy)]
pub struct WalkNode {
    /// Centre of mass of the subtree.
    pub com: Vec3,
    /// Total mass of the subtree.
    pub mass: f64,
    /// Side length of the cell, `2 * half` (exact: doubling only changes the
    /// exponent).
    pub size: f64,
    /// Walk index one past the end of this node's subtree.
    pub skip: u32,
    /// Start of this leaf's bodies in the walk-order body arrays; 0 for internal
    /// nodes.
    pub body_start: u32,
    /// Number of bodies in this leaf; 0 for internal nodes (a leaf always holds at
    /// least one body).
    pub body_len: u32,
}

/// A Barnes-Hut octree over a body array.
#[derive(Debug, Clone)]
pub struct Octree {
    /// The construction arena, in insertion order, linked by child ids.
    nodes: Vec<OctNode>,
    /// The same nodes in walk order.
    walk: Vec<WalkNode>,
    /// Every leaf's body indices, packed back-to-back in walk order; leaves address it
    /// via `(body_start, body_len)`.
    body_ids: Vec<u32>,
    /// `(position, mass)` of `body_ids[k]`.
    body_points: Vec<(Vec3, f64)>,
    root: NodeId,
    leaf_capacity: usize,
}

/// Construction-time state: intrusive per-leaf body chains (freed before the tree is
/// returned, so the finished tree carries only the flat arena).
struct ChainBuilder {
    /// `head[node]` — most recently inserted body of a leaf, [`NO_BODY`] if none.
    head: Vec<u32>,
    /// `count[node]` — number of bodies currently chained into a leaf.
    count: Vec<u32>,
    /// `next[body]` — the body inserted into the same leaf just before `body`.
    next: Vec<u32>,
    /// Reusable split buffers: a split pops one, reinserts from it, and returns it.
    /// Nested splits (coincident clusters) pop deeper buffers, so the pool grows to
    /// the maximum split depth, not the leaf count.
    pool: Vec<Vec<u32>>,
}

impl ChainBuilder {
    fn new(num_bodies: usize) -> Self {
        ChainBuilder {
            head: vec![NO_BODY],
            count: vec![0],
            next: vec![NO_BODY; num_bodies],
            pool: Vec::new(),
        }
    }

    fn push(&mut self, node: NodeId, body: u32) -> u32 {
        let n = node as usize;
        self.next[body as usize] = self.head[n];
        self.head[n] = body;
        self.count[n] += 1;
        self.count[n]
    }

    /// Remove a leaf's bodies into `out` in insertion order (the chain stores them
    /// newest-first, so the walk is reversed).
    fn take_into(&mut self, node: NodeId, out: &mut Vec<u32>) {
        let n = node as usize;
        out.clear();
        let mut body = self.head[n];
        while body != NO_BODY {
            out.push(body);
            body = self.next[body as usize];
        }
        out.reverse();
        self.head[n] = NO_BODY;
        self.count[n] = 0;
    }
}

impl Octree {
    /// Build the tree over `bodies`, splitting any leaf holding more than
    /// `leaf_capacity` bodies.  The build is sequential, matching the paper's modified
    /// benchmark ("a single processor reads all of the particles and rebuilds the
    /// tree").
    ///
    /// # Panics
    /// Panics if `bodies` is empty or `leaf_capacity` is zero.
    pub fn build(bodies: &[Body], leaf_capacity: usize) -> Self {
        assert!(!bodies.is_empty(), "cannot build a tree over zero bodies");
        assert!(leaf_capacity >= 1, "leaf capacity must be at least 1");
        // Bounding cube.
        let mut min = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for b in bodies {
            min.x = min.x.min(b.pos.x);
            min.y = min.y.min(b.pos.y);
            min.z = min.z.min(b.pos.z);
            max.x = max.x.max(b.pos.x);
            max.y = max.y.max(b.pos.y);
            max.z = max.z.max(b.pos.z);
        }
        let center = (min + max) * 0.5;
        let half = ((max.x - min.x).max(max.y - min.y).max(max.z - min.z) * 0.5).max(1e-9) * 1.0001;

        let mut tree = Octree {
            nodes: vec![OctNode {
                center,
                half,
                mass: 0.0,
                com: Vec3::ZERO,
                children: [None; 8],
                is_leaf: true,
                body_start: 0,
                body_len: 0,
            }],
            walk: Vec::new(),
            body_ids: Vec::with_capacity(bodies.len()),
            body_points: Vec::with_capacity(bodies.len()),
            root: 0,
            leaf_capacity,
        };
        let mut chains = ChainBuilder::new(bodies.len());
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(&mut chains, tree.root, i as u32, b.pos, bodies);
        }
        tree.walk.reserve_exact(tree.nodes.len());
        let mut leaf = chains.pool.pop().unwrap_or_default();
        tree.emit(&mut chains, &mut leaf, tree.root, bodies);
        tree
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &OctNode {
        &self.nodes[id as usize]
    }

    /// The body indices stored in leaf `id`, in insertion order (empty for internal
    /// nodes).
    pub fn leaf_bodies(&self, id: NodeId) -> &[u32] {
        let n = &self.nodes[id as usize];
        &self.body_ids[n.body_start as usize..(n.body_start + n.body_len) as usize]
    }

    /// The force walk: the nodes in visit order (the root first), and every leaf's
    /// body ids and `(position, mass)` pairs, packed in the same order and addressed by
    /// each leaf's `(body_start, body_len)`.
    pub fn walk(&self) -> (&[WalkNode], &[u32], &[(Vec3, f64)]) {
        (&self.walk, &self.body_ids, &self.body_points)
    }

    /// The octant (0..8) of `pos` relative to a cell centred at `center`.
    fn octant(center: Vec3, pos: Vec3) -> usize {
        (usize::from(pos.x >= center.x))
            | (usize::from(pos.y >= center.y) << 1)
            | (usize::from(pos.z >= center.z) << 2)
    }

    /// Centre of the `oct`-th child of a cell at `center` with half-size `half`.
    fn child_center(center: Vec3, half: f64, oct: usize) -> Vec3 {
        let q = half * 0.5;
        Vec3::new(
            center.x + if oct & 1 != 0 { q } else { -q },
            center.y + if oct & 2 != 0 { q } else { -q },
            center.z + if oct & 4 != 0 { q } else { -q },
        )
    }

    fn insert(
        &mut self,
        chains: &mut ChainBuilder,
        node: NodeId,
        body: u32,
        pos: Vec3,
        bodies: &[Body],
    ) {
        let n = node as usize;
        if self.nodes[n].is_leaf {
            let count = chains.push(node, body);
            // Split when over capacity, unless the cell is already tiny (coincident
            // particles would otherwise recurse forever).
            if count as usize > self.leaf_capacity && self.nodes[n].half > 1e-12 {
                let mut existing = chains.pool.pop().unwrap_or_default();
                chains.take_into(node, &mut existing);
                self.nodes[n].is_leaf = false;
                for &b in &existing {
                    let p = bodies[b as usize].pos;
                    self.insert_into_child(chains, node, b, p, bodies);
                }
                chains.pool.push(existing);
            }
        } else {
            self.insert_into_child(chains, node, body, pos, bodies);
        }
    }

    fn insert_into_child(
        &mut self,
        chains: &mut ChainBuilder,
        node: NodeId,
        body: u32,
        pos: Vec3,
        bodies: &[Body],
    ) {
        let (center, half) = {
            let n = &self.nodes[node as usize];
            (n.center, n.half)
        };
        let oct = Self::octant(center, pos);
        let child = match self.nodes[node as usize].children[oct] {
            Some(c) => c,
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(OctNode {
                    center: Self::child_center(center, half, oct),
                    half: half * 0.5,
                    mass: 0.0,
                    com: Vec3::ZERO,
                    children: [None; 8],
                    is_leaf: true,
                    body_start: 0,
                    body_len: 0,
                });
                chains.head.push(NO_BODY);
                chains.count.push(0);
                self.nodes[node as usize].children[oct] = Some(id);
                id
            }
        };
        self.insert(chains, child, body, pos, bodies);
    }

    /// Append the subtree of `node` to the walk, children in descending octant order,
    /// packing each leaf's chained bodies (in insertion order) as it is reached, and
    /// summarize masses bottom-up.  Returns the subtree's mass and centre of mass.
    /// `leaf` is scratch for one leaf's bodies.
    fn emit(
        &mut self,
        chains: &mut ChainBuilder,
        leaf: &mut Vec<u32>,
        node: NodeId,
        bodies: &[Body],
    ) -> (f64, Vec3) {
        let n = node as usize;
        let k = self.walk.len();
        self.walk.push(WalkNode {
            com: Vec3::ZERO,
            mass: 0.0,
            size: 0.0,
            skip: 0,
            body_start: 0,
            body_len: 0,
        });
        let mut mass = 0.0;
        let mut weighted = Vec3::ZERO;
        if self.nodes[n].is_leaf {
            let start = self.body_ids.len() as u32;
            chains.take_into(node, leaf);
            for &b in leaf.iter() {
                let body = &bodies[b as usize];
                mass += body.mass;
                weighted += body.pos * body.mass;
                self.body_ids.push(b);
                self.body_points.push((body.pos, body.mass));
            }
            self.nodes[n].body_start = start;
            self.nodes[n].body_len = self.body_ids.len() as u32 - start;
        } else {
            // Emit in visit order, but sum the children in ascending octant order:
            // that order fixes the bits of every centre of mass.
            let children = self.nodes[n].children;
            let mut sums = [(0.0, Vec3::ZERO); 8];
            for oct in (0..8).rev() {
                if let Some(child) = children[oct] {
                    sums[oct] = self.emit(chains, leaf, child, bodies);
                }
            }
            for (child, &(m, c)) in children.iter().zip(&sums) {
                if child.is_some() {
                    mass += m;
                    weighted += c * m;
                }
            }
        }
        let node = &mut self.nodes[n];
        let com = if mass > 0.0 { weighted / mass } else { node.center };
        node.mass = mass;
        node.com = com;
        self.walk[k] = WalkNode {
            com,
            mass,
            size: 2.0 * node.half,
            skip: self.walk.len() as u32,
            body_start: node.body_start,
            body_len: node.body_len,
        };
        (mass, com)
    }

    /// In-order (depth-first, octant order) traversal of the leaves, returning body
    /// indices in tree order.  Consecutive bodies in this order are physically close —
    /// this is both the costzones partition order and (conceptually) the ordering a
    /// space-filling-curve reordering imposes on memory.
    pub fn inorder_bodies(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.inorder_bodies_into(&mut out);
        out
    }

    /// [`Octree::inorder_bodies`] into a caller-provided buffer (cleared first), so
    /// per-iteration traversals can reuse one allocation.
    ///
    /// The walk lists the leaves in descending octant order, so its leaves read
    /// backwards are the ascending in-order sequence; each leaf's bodies stay in
    /// insertion order.
    pub fn inorder_bodies_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for node in self.walk.iter().rev() {
            let start = node.body_start as usize;
            out.extend_from_slice(&self.body_ids[start..start + node.body_len as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::plummer_sphere;

    fn bodies(n: usize, seed: u64) -> Vec<Body> {
        let (pos, mass) = plummer_sphere(n, 3, 1.0, [0.0; 3], seed);
        Body::from_positions(&pos, &mass)
    }

    #[test]
    fn every_body_lands_in_exactly_one_leaf() {
        let bs = bodies(500, 1);
        let tree = Octree::build(&bs, 8);
        let mut seen = vec![0u32; bs.len()];
        for id in 0..tree.num_nodes() {
            let node = tree.node(id as NodeId);
            if node.is_leaf {
                for &b in tree.leaf_bodies(id as NodeId) {
                    seen[b as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn leaves_respect_capacity() {
        let bs = bodies(1000, 2);
        let cap = 8;
        let tree = Octree::build(&bs, cap);
        for id in 0..tree.num_nodes() {
            let node = tree.node(id as NodeId);
            if node.is_leaf {
                let len = tree.leaf_bodies(id as NodeId).len();
                assert!(len <= cap, "leaf holds {len} bodies");
            }
        }
    }

    #[test]
    fn arena_ranges_are_disjoint_and_cover_every_body() {
        let bs = bodies(700, 9);
        let tree = Octree::build(&bs, 4);
        let mut total = 0usize;
        for id in 0..tree.num_nodes() {
            let node = tree.node(id as NodeId);
            if node.is_leaf {
                total += tree.leaf_bodies(id as NodeId).len();
            } else {
                assert!(tree.leaf_bodies(id as NodeId).is_empty());
            }
        }
        assert_eq!(total, bs.len(), "leaf ranges must tile the arena");
        let mut all: Vec<u32> = tree.body_ids.clone();
        all.sort_unstable();
        assert_eq!(all, (0..bs.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn root_mass_equals_total_mass() {
        let bs = bodies(300, 3);
        let tree = Octree::build(&bs, 4);
        let total: f64 = bs.iter().map(|b| b.mass).sum();
        assert!((tree.node(tree.root()).mass - total).abs() < 1e-9);
    }

    #[test]
    fn centre_of_mass_matches_direct_computation() {
        let bs = bodies(200, 4);
        let tree = Octree::build(&bs, 8);
        let total: f64 = bs.iter().map(|b| b.mass).sum();
        let mut com = Vec3::ZERO;
        for b in &bs {
            com += b.pos * b.mass;
        }
        com = com / total;
        let root_com = tree.node(tree.root()).com;
        assert!(root_com.dist(com) < 1e-9);
    }

    #[test]
    fn inorder_traversal_is_a_permutation_with_spatial_locality() {
        let bs = bodies(800, 5);
        let tree = Octree::build(&bs, 8);
        let order = tree.inorder_bodies();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..bs.len() as u32).collect::<Vec<_>>());
        // Consecutive bodies in tree order are much closer on average than consecutive
        // bodies in (random) array order.
        let mean_dist = |seq: &[u32]| {
            seq.windows(2).map(|w| bs[w[0] as usize].pos.dist(bs[w[1] as usize].pos)).sum::<f64>()
                / (seq.len() - 1) as f64
        };
        let array_order: Vec<u32> = (0..bs.len() as u32).collect();
        assert!(mean_dist(&order) * 2.0 < mean_dist(&array_order));
    }

    fn subtree_size(tree: &Octree, id: NodeId) -> usize {
        1 + tree
            .node(id)
            .children
            .into_iter()
            .flatten()
            .map(|c| subtree_size(tree, c))
            .sum::<usize>()
    }

    fn collect_inorder(tree: &Octree, id: NodeId, out: &mut Vec<u32>) {
        out.extend_from_slice(tree.leaf_bodies(id));
        for child in tree.node(id).children.into_iter().flatten() {
            collect_inorder(tree, child, out);
        }
    }

    /// The walk lists the arena's nodes in the order a stack traversal pops them, with
    /// each node's summary, its leaf bodies, and a skip that ends its subtree.
    #[test]
    fn walk_is_the_stack_visit_order() {
        let bs = bodies(600, 10);
        let tree = Octree::build(&bs, 4);
        let mut order = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(tree.node(id).children.into_iter().flatten());
        }
        let (walk, ids, points) = tree.walk();
        assert_eq!(walk.len(), order.len());
        for (k, &id) in order.iter().enumerate() {
            let (w, node) = (&walk[k], tree.node(id));
            assert_eq!(w.mass.to_bits(), node.mass.to_bits());
            assert_eq!(w.com, node.com);
            assert_eq!(w.size, 2.0 * node.half);
            assert_eq!(w.skip as usize, k + subtree_size(&tree, id));
            let range = w.body_start as usize..(w.body_start + w.body_len) as usize;
            assert_eq!(&ids[range.clone()], tree.leaf_bodies(id));
            for (&b, &(pos, mass)) in ids[range.clone()].iter().zip(&points[range]) {
                assert_eq!((pos, mass), (bs[b as usize].pos, bs[b as usize].mass));
            }
        }
    }

    #[test]
    fn reversed_walk_leaves_are_the_ascending_inorder() {
        for cap in [1, 3, 8] {
            let bs = bodies(400, 11);
            let tree = Octree::build(&bs, cap);
            let mut expected = Vec::new();
            collect_inorder(&tree, tree.root(), &mut expected);
            assert_eq!(tree.inorder_bodies(), expected);
        }
    }

    #[test]
    fn inorder_bodies_into_reuses_the_buffer() {
        let bs = bodies(300, 8);
        let tree = Octree::build(&bs, 8);
        let mut buf = vec![7u32; 5];
        tree.inorder_bodies_into(&mut buf);
        assert_eq!(buf, tree.inorder_bodies());
    }

    #[test]
    fn coincident_bodies_do_not_blow_up_the_tree() {
        let mut bs = bodies(4, 6);
        let p = bs[0].pos;
        for b in bs.iter_mut() {
            b.pos = p;
        }
        let tree = Octree::build(&bs, 2);
        assert!(tree.num_nodes() < 200);
        assert_eq!(tree.inorder_bodies().len(), 4);
    }

    #[test]
    fn children_lie_inside_their_parent() {
        let bs = bodies(300, 7);
        let tree = Octree::build(&bs, 4);
        for id in 0..tree.num_nodes() {
            let node = tree.node(id as NodeId);
            for child in node.children.into_iter().flatten() {
                let c = tree.node(child);
                assert!(c.half <= node.half * 0.5 + 1e-12);
                assert!((c.center.x - node.center.x).abs() <= node.half);
                assert!((c.center.y - node.center.y).abs() <= node.half);
                assert!((c.center.z - node.center.z).abs() <= node.half);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero bodies")]
    fn empty_body_array_panics() {
        Octree::build(&[], 8);
    }
}
