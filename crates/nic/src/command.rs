//! Virtual-memory-mapped command pages (paper §4.2).
//!
//! The NIC claims a region of *physical address space* (not actual RAM)
//! the same size as physical memory, at a fixed distance from it: command
//! page `p` controls physical page `p`. The kernel maps individual
//! command pages into a process's virtual space to grant it the right to
//! "talk to" the NIC about the corresponding data page entirely from user
//! level; revoking the mapping revokes the right.
//!
//! Writes to a command page carry a [`CommandOp`]; the most important is
//! the deliberate-update start, whose operand is a plain word count — so
//! the paper's protocol ("load a source register with *n* and `CMPXCHG`
//! to the command address") works unchanged.

use shrimp_mem::PhysAddr;

use crate::error::NicError;
use crate::nipt::UpdatePolicy;

/// Operations a user process can issue through a command page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandOp {
    /// Start a deliberate-update DMA transfer of `words` 32-bit words
    /// beginning at the data address corresponding to the written command
    /// address. Encoded as the bare word count, exactly as in §4.3.
    StartTransfer {
        /// Number of words to transfer (1..=2^26-1).
        words: u32,
    },
    /// Switch the mapping segment covering the corresponding data address
    /// to a different update policy (the §4.2 example of switching a page
    /// from single-write to blocked-write mode).
    SetPolicy(UpdatePolicy),
    /// Request an interrupt the next time data arrives for the
    /// corresponding page (one-shot).
    ArmInterrupt,
    /// Cancel a pending interrupt request.
    DisarmInterrupt,
}

const OP_SHIFT: u32 = 26;
const OPERAND_MASK: u32 = (1 << OP_SHIFT) - 1;
const OP_SET_POLICY: u32 = 1;
const OP_ARM_IRQ: u32 = 2;
const OP_DISARM_IRQ: u32 = 3;

impl CommandOp {
    /// Encodes to the 32-bit value a store to a command page carries.
    pub fn encode(self) -> u32 {
        match self {
            CommandOp::StartTransfer { words } => words,
            CommandOp::SetPolicy(p) => {
                let operand = match p {
                    UpdatePolicy::AutomaticSingle => 0,
                    UpdatePolicy::AutomaticBlocked => 1,
                    UpdatePolicy::Deliberate => 2,
                };
                (OP_SET_POLICY << OP_SHIFT) | operand
            }
            CommandOp::ArmInterrupt => OP_ARM_IRQ << OP_SHIFT,
            CommandOp::DisarmInterrupt => OP_DISARM_IRQ << OP_SHIFT,
        }
    }

    /// Decodes a stored value.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::Malformed`] for unknown opcodes or operands,
    /// and for a zero word count.
    pub fn decode(value: u32) -> Result<CommandOp, NicError> {
        let op = value >> OP_SHIFT;
        let operand = value & OPERAND_MASK;
        match op {
            0 => {
                if operand == 0 {
                    Err(NicError::Malformed("zero-word transfer command"))
                } else {
                    Ok(CommandOp::StartTransfer { words: operand })
                }
            }
            OP_SET_POLICY => match operand {
                0 => Ok(CommandOp::SetPolicy(UpdatePolicy::AutomaticSingle)),
                1 => Ok(CommandOp::SetPolicy(UpdatePolicy::AutomaticBlocked)),
                2 => Ok(CommandOp::SetPolicy(UpdatePolicy::Deliberate)),
                _ => Err(NicError::Malformed("unknown update policy")),
            },
            OP_ARM_IRQ => Ok(CommandOp::ArmInterrupt),
            OP_DISARM_IRQ => Ok(CommandOp::DisarmInterrupt),
            _ => Err(NicError::Malformed("unknown command opcode")),
        }
    }
}

/// The command address region of one node: the one home of the §4.2
/// layout, which puts the command page of data page `p` exactly
/// installed memory above it.
///
/// # Examples
///
/// ```
/// use shrimp_nic::CommandSpace;
/// use shrimp_mem::PhysAddr;
///
/// // 64 pages of DRAM: commands live at the same distance above it.
/// let cmd = CommandSpace::new(64 * 4096);
/// let data = PhysAddr::new(3 * 4096 + 8);
/// let cmd_addr = cmd.command_addr_for(data);
/// assert_eq!(cmd.data_addr_for(cmd_addr), Some(data));
/// assert!(cmd.contains(cmd_addr));
/// assert!(!cmd.contains(data));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSpace {
    /// Start of the command region == installed physical bytes, so the
    /// "distance" between a data address and its command address is
    /// exactly the memory size (§4.2).
    base: u64,
}

impl CommandSpace {
    /// Creates the command region for a node with `phys_size` bytes of
    /// DRAM.
    pub fn new(phys_size: u64) -> Self {
        CommandSpace { base: phys_size }
    }

    /// True if `addr` is a command address rather than installed
    /// memory. Every command address is [`CommandSpace::command_addr_for`]
    /// of a data address, so none lies past the region's end.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() >= self.base
    }

    /// The data address a command address controls, or `None` if `addr`
    /// is not a command address.
    pub fn data_addr_for(&self, addr: PhysAddr) -> Option<PhysAddr> {
        self.contains(addr).then(|| PhysAddr::new(addr.raw() - self.base))
    }

    /// The command address controlling `data` (same in-page offset).
    ///
    /// # Panics
    ///
    /// Panics if `data` is outside installed memory.
    pub fn command_addr_for(&self, data: PhysAddr) -> PhysAddr {
        assert!(data.raw() < self.base, "data address outside installed memory");
        PhysAddr::new(data.raw() + self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_encoding_roundtrips() {
        let ops = [
            CommandOp::StartTransfer { words: 1 },
            CommandOp::StartTransfer { words: 1024 },
            CommandOp::SetPolicy(UpdatePolicy::AutomaticSingle),
            CommandOp::SetPolicy(UpdatePolicy::AutomaticBlocked),
            CommandOp::SetPolicy(UpdatePolicy::Deliberate),
            CommandOp::ArmInterrupt,
            CommandOp::DisarmInterrupt,
        ];
        for op in ops {
            assert_eq!(CommandOp::decode(op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn bare_word_count_is_a_start_command() {
        // The paper's protocol stores the plain word count.
        assert_eq!(
            CommandOp::decode(512).unwrap(),
            CommandOp::StartTransfer { words: 512 }
        );
    }

    #[test]
    fn bad_encodings_rejected() {
        assert!(CommandOp::decode(0).is_err(), "zero word count");
        assert!(CommandOp::decode((1 << 26) | 7).is_err(), "bad policy");
        assert!(CommandOp::decode(15 << 26).is_err(), "bad opcode");
    }

    #[test]
    fn space_geometry() {
        let cmd = CommandSpace::new(16 * 4096);
        assert!(!cmd.contains(PhysAddr::new(16 * 4096 - 1)));
        assert!(cmd.contains(PhysAddr::new(16 * 4096)));
        assert!(cmd.contains(cmd.command_addr_for(PhysAddr::new(16 * 4096 - 1))));
    }

    #[test]
    fn addr_mapping_preserves_offset() {
        let cmd = CommandSpace::new(16 * 4096);
        let data = PhysAddr::new(5 * 4096 + 123);
        let c = cmd.command_addr_for(data);
        assert_eq!(c.offset(), 123);
        assert_eq!(cmd.data_addr_for(c), Some(data));
        assert_eq!(cmd.data_addr_for(data), None);
    }

    #[test]
    #[should_panic(expected = "outside installed memory")]
    fn command_addr_for_rejects_high_addresses() {
        CommandSpace::new(4096).command_addr_for(PhysAddr::new(4096));
    }
}
