//! The storage engine of the Figure 1 big-data stack: a block store with
//! rack-aware replica placement (HDFS-style), locality queries, and
//! re-replication after node failures.

use mcs_simcore::rng::RngStream;
use std::collections::HashMap;

/// Identifies a storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a block of a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// A stored file: a name and its block list.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFile {
    /// File name.
    pub name: String,
    /// Blocks, in file order.
    pub blocks: Vec<BlockId>,
    /// Size of each block, bytes.
    pub block_size: u64,
}

/// A rack-aware replicated block store.
#[derive(Debug, Clone)]
pub struct BlockStore {
    nodes_per_rack: u32,
    node_count: u32,
    replication: usize,
    files: HashMap<String, StoredFile>,
    placements: HashMap<BlockId, Vec<NodeId>>,
    dead: Vec<bool>,
    next_block: u64,
    rng: RngStream,
}

impl BlockStore {
    /// Creates a store over `node_count` nodes grouped into racks of
    /// `nodes_per_rack`, with `replication` replicas per block.
    ///
    /// # Panics
    /// Panics when any parameter is zero or replication exceeds node count.
    pub fn new(node_count: u32, nodes_per_rack: u32, replication: usize, seed: u64) -> Self {
        assert!(node_count > 0 && nodes_per_rack > 0 && replication > 0);
        assert!(replication <= node_count as usize, "replication exceeds nodes");
        BlockStore {
            nodes_per_rack,
            node_count,
            replication,
            files: HashMap::new(),
            placements: HashMap::new(),
            dead: vec![false; node_count as usize],
            next_block: 0,
            rng: RngStream::new(seed, "block-store"),
        }
    }

    /// The rack of a node.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        node.0 / self.nodes_per_rack
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Stores a file of `size_bytes` split into `block_size` blocks.
    /// Placement follows the HDFS heuristic: first replica on a random
    /// live node, second on a different rack, third on the second's rack.
    ///
    /// # Panics
    /// Panics when `block_size == 0` or a file with this name exists.
    pub fn put(&mut self, name: &str, size_bytes: u64, block_size: u64) -> &StoredFile {
        assert!(block_size > 0, "block size must be positive");
        assert!(!self.files.contains_key(name), "file {name} already stored");
        let block_count = size_bytes.div_ceil(block_size).max(1);
        let mut blocks = Vec::with_capacity(block_count as usize);
        for _ in 0..block_count {
            let id = BlockId(self.next_block);
            self.next_block += 1;
            let replicas = self.place_block();
            self.placements.insert(id, replicas);
            blocks.push(id);
        }
        let file = StoredFile { name: name.to_owned(), blocks, block_size };
        self.files.insert(name.to_owned(), file);
        &self.files[name]
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.node_count)
            .filter(|&n| !self.dead[n as usize])
            .map(NodeId)
            .collect()
    }

    fn place_block(&mut self) -> Vec<NodeId> {
        let live = self.live_nodes();
        assert!(!live.is_empty(), "no live nodes left");
        let mut replicas = Vec::with_capacity(self.replication);
        let first = live[self.rng.uniform_usize(live.len())];
        replicas.push(first);
        // Second replica off-rack, if any other rack has live nodes.
        let off_rack: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|n| self.rack_of(*n) != self.rack_of(first) && !replicas.contains(n))
            .collect();
        if replicas.len() < self.replication {
            if let Some(&second) = if off_rack.is_empty() {
                None
            } else {
                Some(&off_rack[self.rng.uniform_usize(off_rack.len())])
            } {
                replicas.push(second);
                // Third on the second's rack when possible.
                let same_rack: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|n| self.rack_of(*n) == self.rack_of(second) && !replicas.contains(n))
                    .collect();
                if replicas.len() < self.replication && !same_rack.is_empty() {
                    replicas.push(same_rack[self.rng.uniform_usize(same_rack.len())]);
                }
            }
        }
        // Fill any remainder from arbitrary live nodes.
        while replicas.len() < self.replication {
            let candidates: Vec<NodeId> =
                live.iter().copied().filter(|n| !replicas.contains(n)).collect();
            if candidates.is_empty() {
                break;
            }
            replicas.push(candidates[self.rng.uniform_usize(candidates.len())]);
        }
        replicas
    }

    /// The file named `name`, if stored.
    pub fn file(&self, name: &str) -> Option<&StoredFile> {
        self.files.get(name)
    }

    /// Live replica locations of a block (dead nodes filtered out).
    pub fn locations(&self, block: BlockId) -> Vec<NodeId> {
        self.placements
            .get(&block)
            .map(|v| v.iter().copied().filter(|n| !self.dead[n.0 as usize]).collect())
            .unwrap_or_default()
    }

    /// Marks a node dead; its replicas become unavailable. Returns how many
    /// blocks dropped below the replication target.
    pub fn fail_node(&mut self, node: NodeId) -> usize {
        self.dead[node.0 as usize] = true;
        self.placements
            .values()
            .filter(|replicas| {
                replicas.iter().filter(|n| !self.dead[n.0 as usize]).count() < self.replication
            })
            .count()
    }

    /// Re-replicates under-replicated blocks onto live nodes. Returns the
    /// number of new replicas created.
    pub fn re_replicate(&mut self) -> usize {
        let live = self.live_nodes();
        // Fixed block order: one RNG draw per block must not follow hash order.
        let mut blocks: Vec<BlockId> = self.placements.keys().copied().collect();
        blocks.sort_unstable();
        let mut created = 0;
        for b in blocks {
            loop {
                let replicas = self.placements[&b].clone();
                let live_replicas: Vec<NodeId> =
                    replicas.iter().copied().filter(|n| !self.dead[n.0 as usize]).collect();
                if live_replicas.len() >= self.replication {
                    break;
                }
                let candidates: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|n| !live_replicas.contains(n))
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let target = candidates[self.rng.uniform_usize(candidates.len())];
                let entry = self.placements.get_mut(&b).expect("known block");
                entry.retain(|n| !self.dead[n.0 as usize]);
                entry.push(target);
                created += 1;
            }
        }
        created
    }

    /// True when `node` holds a live replica of `block`.
    pub fn is_local(&self, block: BlockId, node: NodeId) -> bool {
        self.locations(block).contains(&node)
    }

    /// True when `node` shares a rack with a live replica of `block`.
    pub fn is_rack_local(&self, block: BlockId, node: NodeId) -> bool {
        let rack = self.rack_of(node);
        self.locations(block).iter().any(|n| self.rack_of(*n) == rack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BlockStore {
        BlockStore::new(12, 4, 3, 7)
    }

    #[test]
    fn put_splits_into_blocks() {
        let mut s = store();
        let f = s.put("input", 1000, 128);
        assert_eq!(f.blocks.len(), 8);
        assert_eq!(f.block_size, 128);
        assert!(s.file("input").is_some());
        assert!(s.file("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn duplicate_file_rejected() {
        let mut s = store();
        s.put("x", 10, 10);
        s.put("x", 10, 10);
    }

    #[test]
    fn replication_count_met() {
        let mut s = store();
        let blocks = s.put("f", 10_000, 100).blocks.clone();
        for b in blocks {
            assert_eq!(s.locations(b).len(), 3);
        }
    }

    #[test]
    fn replicas_span_racks() {
        let mut s = store();
        let blocks = s.put("f", 10_000, 100).blocks.clone();
        let mut multi_rack = 0;
        for b in &blocks {
            let racks: std::collections::HashSet<u32> =
                s.locations(*b).iter().map(|n| s.rack_of(*n)).collect();
            if racks.len() >= 2 {
                multi_rack += 1;
            }
        }
        assert_eq!(multi_rack, blocks.len(), "every block should span ≥2 racks");
    }

    #[test]
    fn node_failure_and_re_replication() {
        let mut s = store();
        let blocks = s.put("f", 5_000, 100).blocks.clone();
        let victim = s.locations(blocks[0])[0];
        let under = s.fail_node(victim);
        assert!(under > 0, "failing a replica holder must under-replicate something");
        let created = s.re_replicate();
        assert!(created >= under);
        for b in &blocks {
            assert_eq!(s.locations(*b).len(), 3, "block {b:?} not re-replicated");
            assert!(!s.locations(*b).contains(&victim));
        }
    }

    #[test]
    fn locality_queries() {
        let mut s = store();
        let b = s.put("f", 100, 100).blocks[0];
        let holder = s.locations(b)[0];
        assert!(s.is_local(b, holder));
        assert!(s.is_rack_local(b, holder));
        // A node on a rack with no replica: find one.
        let replica_racks: std::collections::HashSet<u32> =
            s.locations(b).iter().map(|n| s.rack_of(*n)).collect();
        if let Some(outsider) =
            (0..12).map(NodeId).find(|n| !replica_racks.contains(&s.rack_of(*n)))
        {
            assert!(!s.is_local(b, outsider));
            assert!(!s.is_rack_local(b, outsider));
        }
    }

    #[test]
    fn deterministic_placement() {
        let mut a = BlockStore::new(12, 4, 3, 9);
        let mut b = BlockStore::new(12, 4, 3, 9);
        let fa = a.put("f", 10_000, 100).blocks.clone();
        let fb = b.put("f", 10_000, 100).blocks.clone();
        for (x, y) in fa.iter().zip(&fb) {
            assert_eq!(a.locations(*x), b.locations(*y));
        }
    }
}
