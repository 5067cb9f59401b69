//! Collective operations built on mapped communication.
//!
//! The paper's model is connection-oriented: a mapping joins one sender
//! to one receiver, and a page can be split between at most two
//! mappings (§3.2), so one-to-many primitives are *library* work layered
//! on point-to-point mappings — exactly the customized user-level
//! buffering strategies §7 argues the interface enables. This module
//! provides the two collectives every multicomputer program in the
//! paper's intro needs:
//!
//! * [`Barrier`] — hub-and-spoke with generation numbers: each
//!   participant's arrival word is mapped out to a slot on the hub; the
//!   hub's release word is mapped out to every participant.
//! * [`Broadcast`] — a binary distribution tree with software forwarding
//!   (interior nodes re-store received data towards their children),
//!   because the NIC does not re-snoop incoming DMA writes.

use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_mesh::NodeId;
use shrimp_nic::UpdatePolicy;
use shrimp_os::Pid;

use crate::error::MachineError;
use crate::machine::{Machine, MapRequest};

/// One participant of a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// The node the process runs on.
    pub node: NodeId,
    /// The process.
    pub pid: Pid,
}

fn map4(
    m: &mut Machine,
    src: Member,
    src_va: VirtAddr,
    dst: Member,
    export: shrimp_os::ExportId,
    dst_offset: u64,
    len: u64,
) -> Result<(), MachineError> {
    m.map(MapRequest {
        src_node: src.node,
        src_pid: src.pid,
        src_va,
        dst_node: dst.node,
        export,
        dst_offset,
        len,
        policy: UpdatePolicy::AutomaticSingle,
    })?;
    let _ = dst;
    Ok(())
}

/// A hub-and-spoke barrier over automatic-update mappings.
///
/// # Examples
///
/// ```
/// use shrimp_core::{Machine, MachineConfig};
/// use shrimp_core::collective::{Barrier, Member};
/// use shrimp_mesh::{MeshShape, NodeId};
///
/// let mut m = Machine::new(MachineConfig::prototype(MeshShape::new(2, 2)));
/// let members: Vec<Member> = (0..4u16)
///     .map(|n| Member { node: NodeId(n), pid: m.create_process(NodeId(n)) })
///     .collect();
/// let mut barrier = Barrier::establish(&mut m, &members)?;
/// barrier.round(&mut m)?; // everyone arrives, everyone is released
/// barrier.round(&mut m)?;
/// assert_eq!(barrier.generation(), 2);
/// # Ok::<(), shrimp_core::MachineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Barrier {
    members: Vec<Member>,
    /// Per-member arrival word (member-local, mapped out to the hub).
    arrival: Vec<VirtAddr>,
    /// Hub-side arrival page: slot `i` at offset `4 * i`.
    hub_arrivals: VirtAddr,
    /// Hub-side release image towards member `i` (a page can map out to
    /// at most two destinations, so the hub keeps one image per member —
    /// the connection-oriented cost the paper's §7 trade-off describes).
    hub_release: Vec<VirtAddr>,
    /// Per-member release word (member-local, written by the hub's
    /// mapping).
    release: Vec<VirtAddr>,
    generation: u32,
}

impl Barrier {
    /// Wires the barrier. `members[0]` is the hub.
    ///
    /// # Errors
    ///
    /// Propagates allocation/mapping failures.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two members or more than one page of
    /// arrival slots.
    pub fn establish(m: &mut Machine, members: &[Member]) -> Result<Barrier, MachineError> {
        assert!(members.len() >= 2, "a barrier needs at least two members");
        assert!(
            (members.len() as u64) * 4 <= PAGE_SIZE,
            "too many members for one arrival page"
        );
        let hub = members[0];
        let hub_arrivals = m.alloc_pages(hub.node, hub.pid, 1)?;
        let arrivals_export = m.export_buffer(hub.node, hub.pid, hub_arrivals, 1, None)?;

        let mut arrival = Vec::with_capacity(members.len());
        let mut release = Vec::with_capacity(members.len());
        let mut hub_release = Vec::with_capacity(members.len());
        for (i, &member) in members.iter().enumerate() {
            if member == hub {
                // The hub participates through plain local stores.
                arrival.push(hub_arrivals.add(4 * i as u64));
                let local = m.alloc_pages(hub.node, hub.pid, 1)?;
                hub_release.push(local);
                release.push(local);
                continue;
            }
            let a = m.alloc_pages(member.node, member.pid, 1)?;
            map4(m, member, a, hub, arrivals_export, 4 * i as u64, 4)?;
            arrival.push(a);

            let r = m.alloc_pages(member.node, member.pid, 1)?;
            let r_export = m.export_buffer(member.node, member.pid, r, 1, Some(hub.node))?;
            let image = m.alloc_pages(hub.node, hub.pid, 1)?;
            map4(m, hub, image, member, r_export, 0, 4)?;
            hub_release.push(image);
            release.push(r);
        }
        Ok(Barrier {
            members: members.to_vec(),
            arrival,
            hub_arrivals,
            hub_release,
            release,
            generation: 0,
        })
    }

    /// Completed barrier rounds.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Runs one full barrier round: every member publishes its arrival,
    /// the hub observes all of them and publishes the release, and every
    /// member observes the release.
    ///
    /// # Errors
    ///
    /// Propagates datapath errors; fails if an arrival or release is not
    /// observed.
    pub fn round(&mut self, m: &mut Machine) -> Result<(), MachineError> {
        let hub = self.members[0];
        let gen = self.generation + 1;
        for (i, &member) in self.members.iter().enumerate() {
            m.poke(member.node, member.pid, self.arrival[i], &gen.to_le_bytes())?;
        }
        m.run_until_idle()?;
        // The hub sees every arrival slot at the new generation.
        for i in 0..self.members.len() {
            let got = m.peek(hub.node, hub.pid, self.hub_arrivals.add(4 * i as u64), 4)?;
            if u32::from_le_bytes(got.try_into().expect("4 bytes")) != gen {
                return Err(MachineError::NoQuiescence);
            }
        }
        // Release: the hub writes every member's release image (one
        // mapped connection per member).
        for image in &self.hub_release {
            m.poke(hub.node, hub.pid, *image, &gen.to_le_bytes())?;
        }
        m.run_until_idle()?;
        for (i, &member) in self.members.iter().enumerate() {
            let got = m.peek(member.node, member.pid, self.release[i], 4)?;
            if u32::from_le_bytes(got.try_into().expect("4 bytes")) != gen {
                return Err(MachineError::NoQuiescence);
            }
        }
        self.generation = gen;
        Ok(())
    }
}

/// A one-to-all broadcast over a binary distribution tree.
///
/// Each member owns one page: the root's is its send buffer; every other
/// member's receives from its parent. Interior members are also mapped
/// out to their children, and *software forwarding* (a re-store of the
/// received bytes) pushes data down one level — the copy-or-remap
/// trade-off §7 describes for one-to-many communication.
#[derive(Debug, Clone)]
pub struct Broadcast {
    members: Vec<Member>,
    /// Member i's page: root send buffer / receive-and-forward buffer.
    pages: Vec<VirtAddr>,
    /// Member i's *forward image* towards child j (up to two): stores to
    /// it propagate into the child's page.
    forward: Vec<Vec<(usize, VirtAddr)>>,
}

impl Broadcast {
    /// Wires the tree: member `i`'s children are `2i + 1` and `2i + 2`.
    ///
    /// # Errors
    ///
    /// Propagates allocation/mapping failures.
    ///
    /// # Panics
    ///
    /// Panics with no members.
    pub fn establish(m: &mut Machine, members: &[Member]) -> Result<Broadcast, MachineError> {
        assert!(!members.is_empty(), "broadcast needs members");
        let mut pages = Vec::with_capacity(members.len());
        for &member in members {
            pages.push(m.alloc_pages(member.node, member.pid, 1)?);
        }
        let mut forward: Vec<Vec<(usize, VirtAddr)>> = vec![Vec::new(); members.len()];
        for i in 0..members.len() {
            for child in [2 * i + 1, 2 * i + 2] {
                if child >= members.len() {
                    continue;
                }
                let c = members[child];
                let export = m.export_buffer(c.node, c.pid, pages[child], 1, Some(members[i].node))?;
                // The parent writes into a dedicated image page mapped to
                // the child (its own receive page must stay incoming-only).
                let image = m.alloc_pages(members[i].node, members[i].pid, 1)?;
                map4(m, members[i], image, c, export, 0, PAGE_SIZE)?;
                forward[i].push((child, image));
            }
        }
        Ok(Broadcast {
            members: members.to_vec(),
            pages,
            forward,
        })
    }

    /// Broadcasts `data` from member 0 to everyone, forwarding level by
    /// level, and verifies every member holds the data.
    ///
    /// # Errors
    ///
    /// Propagates datapath errors; [`MachineError::Unaligned`] if `data`
    /// is not whole words.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds one page.
    pub fn send(&self, m: &mut Machine, data: &[u8]) -> Result<(), MachineError> {
        assert!(data.len() as u64 <= PAGE_SIZE, "one page per broadcast");
        // Level-order forwarding: each member stores into its forward
        // images once its own copy is complete.
        let mut frontier = vec![0usize];
        // Root "receives" by writing its own page locally.
        let root = self.members[0];
        m.poke(root.node, root.pid, self.pages[0], data)?;
        m.run_until_idle()?;
        while let Some(i) = frontier.pop() {
            let member = self.members[i];
            for &(child, image) in &self.forward[i] {
                // Software forwarding: re-store the received bytes into
                // the mapped image (counted as data movement, as §7's
                // copy-based alternative implies).
                let bytes = m.peek(member.node, member.pid, self.pages[i], data.len() as u64)?;
                m.poke(member.node, member.pid, image, &bytes)?;
                m.run_until_idle()?;
                frontier.push(child);
            }
        }
        for (i, &member) in self.members.iter().enumerate() {
            let got = m.peek(member.node, member.pid, self.pages[i], data.len() as u64)?;
            if got != data {
                return Err(MachineError::NoQuiescence);
            }
        }
        Ok(())
    }

    /// The local page of member `i` (the broadcast landing buffer).
    pub fn page_of(&self, i: usize) -> VirtAddr {
        self.pages[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use shrimp_mesh::MeshShape;

    fn machine_with_members(n: u16) -> (Machine, Vec<Member>) {
        let side = (n as f64).sqrt().ceil() as u16;
        let shape = MeshShape::new(side.max(2), side.max(2));
        let mut m = Machine::new(MachineConfig::prototype(shape));
        let members = (0..n)
            .map(|i| Member {
                node: NodeId(i),
                pid: m.create_process(NodeId(i)),
            })
            .collect();
        (m, members)
    }

    #[test]
    fn barrier_rounds_complete_for_eight_members() {
        let (mut m, members) = machine_with_members(8);
        let mut b = Barrier::establish(&mut m, &members).unwrap();
        for round in 1..=3 {
            b.round(&mut m).unwrap();
            assert_eq!(b.generation(), round);
        }
    }

    #[test]
    fn barrier_with_two_members() {
        let (mut m, members) = machine_with_members(2);
        let mut b = Barrier::establish(&mut m, &members).unwrap();
        b.round(&mut m).unwrap();
        assert_eq!(b.generation(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn barrier_needs_two() {
        let (mut m, members) = machine_with_members(1);
        let _ = Barrier::establish(&mut m, &members[..1]);
    }

    #[test]
    fn broadcast_reaches_seven_members() {
        let (mut m, members) = machine_with_members(7);
        let b = Broadcast::establish(&mut m, &members).unwrap();
        let data: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        b.send(&mut m, &data).unwrap();
        for (i, member) in members.iter().enumerate() {
            let got = m.peek(member.node, member.pid, b.page_of(i), 256).unwrap();
            assert_eq!(got, data, "member {i}");
        }
    }

    #[test]
    fn broadcast_single_member_is_trivial() {
        let (mut m, members) = machine_with_members(2);
        let b = Broadcast::establish(&mut m, &members[..1]).unwrap();
        b.send(&mut m, &[1, 2, 3, 4]).unwrap();
    }
}
