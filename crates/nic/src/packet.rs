//! The NIC wire format.
//!
//! A packet consists of "routing information, the absolute mesh
//! coordinates of the intended receiver, destination memory address,
//! data, and a CRC checksum to detect network errors" (paper §3.1). The
//! routing information proper is consumed by the mesh model
//! ([`shrimp_mesh::packet::ROUTING_OVERHEAD_BYTES`]); everything else is
//! encoded here.
//!
//! Packets are *not* serialized on the simulated datapath: the CRC is
//! computed by streaming over the header fields and the payload slice at
//! construction, and the structured packet itself rides the mesh (it
//! implements [`shrimp_mesh::MeshPayload`]). [`ShrimpPacket::encode`] and
//! [`ShrimpPacket::decode`] produce/parse the equivalent wire bytes and
//! exist for wire-level tests and tools.

use shrimp_mesh::{MeshCoord, MeshPayload, NodeId};
use shrimp_mem::PhysAddr;
use shrimp_sim::SimTime;

use crate::error::NicError;

/// Lifecycle timestamps stamped onto a packet as it moves through the
/// datapath: creation (snoop/deliberate send), injection into the mesh
/// (Outgoing FIFO pop), and acceptance at the receiving NIC (Incoming
/// FIFO push). The stamp is simulation metadata, not part of the wire
/// image: it is ignored by [`ShrimpPacket`] equality and never enters
/// the CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketStamp {
    /// When the packet was created and queued on the sending NIC.
    pub born: SimTime,
    /// When the packet left the Outgoing FIFO for the mesh (updated on
    /// every retransmission, so stage latencies reflect the final trip).
    pub injected: SimTime,
    /// When the receiving NIC accepted the packet into its Incoming FIFO.
    pub accepted: SimTime,
}

impl Default for PacketStamp {
    fn default() -> Self {
        PacketStamp {
            born: SimTime::ZERO,
            injected: SimTime::ZERO,
            accepted: SimTime::ZERO,
        }
    }
}

/// The decoded header of a SHRIMP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Absolute mesh coordinates of the intended receiver, used by the
    /// receiving NIC to verify correct routing.
    pub dst_coord: MeshCoord,
    /// Sending node (used for statistics and debugging; the hardware
    /// guarantees per-sender order so receivers never need it for
    /// reassembly).
    pub src: NodeId,
    /// Destination physical byte address on the receiving node.
    pub dst_addr: PhysAddr,
}

impl WireHeader {
    /// Encoded header size: dst x/y (2) + src (2) + dst_addr (8) +
    /// payload length (2).
    pub const WIRE_BYTES: u64 = 14;

    /// The header's wire bytes, for streaming into a CRC without
    /// materializing the full wire buffer. `len` is the payload length
    /// field value.
    fn wire_bytes(&self, len: u16) -> [u8; Self::WIRE_BYTES as usize] {
        let mut b = [0u8; Self::WIRE_BYTES as usize];
        b[0] = self.dst_coord.x as u8;
        b[1] = self.dst_coord.y as u8;
        b[2..4].copy_from_slice(&self.src.0.to_le_bytes());
        b[4..12].copy_from_slice(&self.dst_addr.raw().to_le_bytes());
        b[12..14].copy_from_slice(&len.to_le_bytes());
        b
    }
}

/// Role of a link-level frame when retransmission is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An ordinary data packet carrying a sequence number.
    Data,
    /// Cumulative acknowledgement: every seq below `seq` arrived.
    Ack,
    /// Go-back-N request: resend everything from `seq` on.
    Nack,
}

impl FrameKind {
    fn to_wire(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Nack => 2,
        }
    }

    fn from_wire(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Ack),
            2 => Some(FrameKind::Nack),
            _ => None,
        }
    }
}

/// Link-level control trailer carried only when the go-back-N engine is
/// enabled: a frame kind byte plus a per-(src,dst) sequence number.
/// Packets sent with retransmission off omit it entirely, so the
/// baseline wire format and CRC are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCtl {
    /// What this frame is.
    pub kind: FrameKind,
    /// Sequence number (data) or cumulative ack/nack point (control).
    pub seq: u32,
}

impl LinkCtl {
    /// Encoded trailer size: kind (1) + seq (4).
    pub const WIRE_BYTES: u64 = 5;

    fn wire_bytes(&self) -> [u8; Self::WIRE_BYTES as usize] {
        let mut b = [0u8; Self::WIRE_BYTES as usize];
        b[0] = self.kind.to_wire();
        b[1..5].copy_from_slice(&self.seq.to_le_bytes());
        b
    }
}

/// Largest payload stored inline, without touching the heap. Snooped
/// automatic-update packets carry a single word (4 bytes), so the common
/// small packet never allocates.
pub const INLINE_PAYLOAD_MAX: usize = 8;

/// A packet payload: tiny payloads live inline in the packet struct,
/// larger ones are refcounted so every pipeline stage (Outgoing FIFO,
/// mesh, Incoming FIFO, DMA) shares one buffer.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Up to [`INLINE_PAYLOAD_MAX`] bytes, stored in place.
    Inline { len: u8, buf: [u8; INLINE_PAYLOAD_MAX] },
    /// A refcounted buffer from the [`arena`](crate::arena) pool; the
    /// allocation is recycled when the last pipeline stage drops it.
    Pooled(std::sync::Arc<crate::arena::PoolBuf>),
}

impl Payload {
    /// Builds a payload from a slice, inlining it when it fits and
    /// copying it into a pooled buffer otherwise.
    pub fn copy_from_slice(data: &[u8]) -> Payload {
        if data.len() <= INLINE_PAYLOAD_MAX {
            let mut buf = [0u8; INLINE_PAYLOAD_MAX];
            buf[..data.len()].copy_from_slice(data);
            Payload::Inline {
                len: data.len() as u8,
                buf,
            }
        } else {
            let mut buf = crate::arena::take(data.len());
            buf.copy_from_slice(data);
            Payload::Pooled(std::sync::Arc::new(buf))
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline { len, buf } => &buf[..*len as usize],
            Payload::Pooled(p) => p,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Inline { len, .. } => *len as usize,
            Payload::Pooled(p) => p.len(),
        }
    }

    /// True when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flips one bit in place. A pooled payload is copied first so other
    /// holders of the buffer are unaffected (fault injection only).
    fn flip_bit(&mut self, byte: usize, mask: u8) {
        match self {
            Payload::Inline { buf, .. } => buf[byte] ^= mask,
            Payload::Pooled(p) => {
                // Fault injection only — copy, other holders keep the
                // pristine buffer.
                let mut copy = crate::arena::take(p.len());
                copy.copy_from_slice(p);
                copy[byte] ^= mask;
                *self = Payload::Pooled(std::sync::Arc::new(copy));
            }
        }
    }
}

impl From<crate::arena::PoolBuf> for Payload {
    /// Wraps a pool buffer, inlining tiny payloads (the buffer returns
    /// to the pool immediately in that case).
    fn from(b: crate::arena::PoolBuf) -> Payload {
        if b.len() <= INLINE_PAYLOAD_MAX {
            Payload::copy_from_slice(&b)
        } else {
            Payload::Pooled(std::sync::Arc::new(b))
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::copy_from_slice(&v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::Inline {
            len: 0,
            buf: [0; INLINE_PAYLOAD_MAX],
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A complete SHRIMP packet: header, payload, CRC32.
///
/// The CRC is computed once at construction (over the logical wire bytes:
/// header, length field, payload) and carried with the packet;
/// [`ShrimpPacket::framed`] extends it over a go-back-N trailer without
/// re-reading the body, and [`ShrimpPacket::verify_crc`] recomputes and
/// compares on receipt.
///
/// # Examples
///
/// ```
/// use shrimp_nic::{ShrimpPacket, WireHeader};
/// use shrimp_mesh::{MeshCoord, NodeId};
/// use shrimp_mem::PhysAddr;
///
/// let header = WireHeader {
///     dst_coord: MeshCoord { x: 1, y: 0 },
///     src: NodeId(0),
///     dst_addr: PhysAddr::new(0x2000),
/// };
/// let packet = ShrimpPacket::new(header, vec![1, 2, 3, 4]);
/// let wire = packet.encode();
/// let decoded = ShrimpPacket::decode(&wire)?;
/// assert_eq!(decoded.payload(), &[1, 2, 3, 4]);
/// # Ok::<(), shrimp_nic::NicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShrimpPacket {
    header: WireHeader,
    payload: Payload,
    /// Present only when the go-back-N engine framed the packet; legacy
    /// packets carry no trailer and their wire image is unchanged.
    link: Option<LinkCtl>,
    crc: u32,
    /// Datapath lifecycle timestamps (simulation metadata; excluded from
    /// equality and the CRC).
    pub stamp: PacketStamp,
}

/// Equality covers the wire image only — the lifecycle stamp is
/// simulation metadata, so a decoded packet compares equal to the one
/// that was encoded.
impl PartialEq for ShrimpPacket {
    fn eq(&self, other: &ShrimpPacket) -> bool {
        self.header == other.header
            && self.payload == other.payload
            && self.link == other.link
            && self.crc == other.crc
    }
}

impl Eq for ShrimpPacket {}

impl ShrimpPacket {
    /// Builds a packet, computing its CRC.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes (the length field).
    pub fn new(header: WireHeader, payload: impl Into<Payload>) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= u16::MAX as usize, "payload too large");
        let crc = body_crc(&header, payload.as_slice(), None);
        ShrimpPacket {
            header,
            payload,
            link: None,
            crc,
            stamp: PacketStamp::default(),
        }
    }

    /// Builds a sequence-framed packet (data or control), computing its
    /// CRC over header, payload *and* the link trailer so trailer
    /// corruption is caught like any other.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u16::MAX` bytes (the length field).
    pub fn with_link(header: WireHeader, payload: impl Into<Payload>, link: LinkCtl) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= u16::MAX as usize, "payload too large");
        let crc = body_crc(&header, payload.as_slice(), Some(link));
        ShrimpPacket {
            header,
            payload,
            link: Some(link),
            crc,
            stamp: PacketStamp::default(),
        }
    }

    /// Frames an unframed packet for go-back-N: the same packet as
    /// [`with_link`](ShrimpPacket::with_link) over its header and
    /// payload, but the CRC costs only the trailer. The trailer follows
    /// the payload on the wire, so the stored body CRC is resumed and
    /// extended by the five trailer bytes. The lifecycle stamp is kept.
    ///
    /// The stored CRC must still match the body. Corruption only happens
    /// on mesh links, after framing, so the NIC never frames a damaged
    /// packet; debug builds check it.
    pub fn framed(mut self, link: LinkCtl) -> Self {
        debug_assert!(self.link.is_none(), "packet is already framed");
        debug_assert_eq!(
            self.crc,
            body_crc(&self.header, self.payload.as_slice(), None),
            "framing a packet whose stored CRC no longer matches its body"
        );
        let mut crc = Crc32::resume(self.crc);
        crc.update(&link.wire_bytes());
        self.crc = crc.finish();
        self.link = Some(link);
        self
    }

    /// Builds an empty-payload ack/nack control frame.
    pub fn control(dst_coord: MeshCoord, src: NodeId, kind: FrameKind, seq: u32) -> Self {
        ShrimpPacket::with_link(
            WireHeader {
                dst_coord,
                src,
                dst_addr: PhysAddr::new(0),
            },
            Payload::default(),
            LinkCtl { kind, seq },
        )
    }

    /// Reassembles a packet from parts without recomputing the CRC — the
    /// decode path and wire-corruption tests, where the stored CRC must be
    /// whatever arrived.
    pub fn from_parts(header: WireHeader, payload: impl Into<Payload>, crc: u32) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= u16::MAX as usize, "payload too large");
        ShrimpPacket {
            header,
            payload,
            link: None,
            crc,
            stamp: PacketStamp::default(),
        }
    }

    /// The decoded header.
    pub fn header(&self) -> &WireHeader {
        &self.header
    }

    /// The data bytes.
    pub fn payload(&self) -> &[u8] {
        self.payload.as_slice()
    }

    /// Consumes the packet, returning the payload.
    pub fn into_payload(self) -> Payload {
        self.payload
    }

    /// The link-level trailer, if the packet is sequence-framed.
    pub fn link(&self) -> Option<LinkCtl> {
        self.link
    }

    /// The CRC32 carried by the packet.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Recomputes the CRC over header, payload and any link trailer and
    /// compares it with the stored one — what the receiving NIC does on
    /// arrival.
    pub fn verify_crc(&self) -> bool {
        body_crc(&self.header, self.payload.as_slice(), self.link) == self.crc
    }

    /// Total encoded size in bytes (header + payload [+ link trailer]
    /// + CRC32).
    pub fn wire_len(&self) -> u64 {
        let link = if self.link.is_some() {
            LinkCtl::WIRE_BYTES
        } else {
            0
        };
        WireHeader::WIRE_BYTES + self.payload.len() as u64 + link + 4
    }

    /// Serializes to wire bytes: header, payload, link trailer (when
    /// present), then the *stored* CRC (so a corrupted packet encodes to
    /// corrupted wire bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len() as usize);
        out.extend_from_slice(&self.header.wire_bytes(self.payload.len() as u16));
        out.extend_from_slice(self.payload.as_slice());
        if let Some(link) = self.link {
            out.extend_from_slice(&link.wire_bytes());
        }
        out.extend_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Flips one bit of the packet's wire image in place, keeping the
    /// stored CRC for every region except the CRC field itself — exactly
    /// what line noise does to a packet in flight. `bit` is taken modulo
    /// the wire size. Bits of the length field (which the structured
    /// packet cannot represent inconsistently) are folded into the CRC
    /// word: either way the checksum no longer matches the body.
    pub fn corrupt_bit(&mut self, bit: u64) {
        let bit = bit % (self.wire_len() * 8);
        let byte = bit / 8;
        let mask = 1u8 << (bit % 8);
        const H: u64 = WireHeader::WIRE_BYTES;
        let plen = self.payload.len() as u64;
        let link_end = H + plen + if self.link.is_some() {
            LinkCtl::WIRE_BYTES
        } else {
            0
        };
        if byte < H {
            match byte {
                0 => self.header.dst_coord.x ^= mask as u16,
                1 => self.header.dst_coord.y ^= mask as u16,
                2 | 3 => self.header.src.0 ^= (mask as u16) << ((byte - 2) * 8),
                4..=11 => {
                    let raw = self.header.dst_addr.raw() ^ ((mask as u64) << ((byte - 4) * 8));
                    self.header.dst_addr = PhysAddr::new(raw);
                }
                _ => self.crc ^= mask as u32,
            }
        } else if byte < H + plen {
            self.payload.flip_bit((byte - H) as usize, mask);
        } else if byte < link_end {
            let link = self.link.as_mut().expect("link region implies trailer");
            match byte - (H + plen) {
                // The kind byte folds into the seq field: any flip still
                // de-syncs the trailer from the stored CRC.
                0 => link.seq ^= mask as u32,
                off => link.seq ^= (mask as u32) << ((off - 1) * 8),
            }
        } else {
            self.crc ^= (mask as u32) << ((byte - link_end) * 8);
        }
    }

    /// Parses and verifies wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::Malformed`] for truncated or length-inconsistent
    /// input and [`NicError::BadCrc`] when the checksum does not match.
    pub fn decode(wire: &[u8]) -> Result<ShrimpPacket, NicError> {
        const H: usize = WireHeader::WIRE_BYTES as usize;
        if wire.len() < H + 4 {
            return Err(NicError::Malformed("truncated packet"));
        }
        let (body, crc_bytes) = wire.split_at(wire.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        if crc32(body) != stored {
            return Err(NicError::BadCrc);
        }
        let len = u16::from_le_bytes([body[12], body[13]]) as usize;
        const L: usize = LinkCtl::WIRE_BYTES as usize;
        let link = if body.len() == H + len {
            None
        } else if body.len() == H + len + L {
            let trailer = &body[H + len..];
            let kind = FrameKind::from_wire(trailer[0])
                .ok_or(NicError::Malformed("bad frame kind"))?;
            let seq = u32::from_le_bytes(trailer[1..5].try_into().expect("4-byte seq"));
            Some(LinkCtl { kind, seq })
        } else {
            return Err(NicError::Malformed("length field mismatch"));
        };
        let header = WireHeader {
            dst_coord: MeshCoord {
                x: body[0] as u16,
                y: body[1] as u16,
            },
            src: NodeId(u16::from_le_bytes([body[2], body[3]])),
            dst_addr: PhysAddr::new(u64::from_le_bytes(
                body[4..12].try_into().expect("8-byte address"),
            )),
        };
        let mut packet = ShrimpPacket::from_parts(
            header,
            Payload::copy_from_slice(&body[H..H + len]),
            stored,
        );
        packet.link = link;
        Ok(packet)
    }
}

/// The mesh ships SHRIMP packets whole; it needs the wire size for link
/// timing and the bit-flip hook for fault injection.
impl MeshPayload for ShrimpPacket {
    fn byte_len(&self) -> u64 {
        self.wire_len()
    }

    fn corrupt_bit(&mut self, bit: u64) {
        ShrimpPacket::corrupt_bit(self, bit);
    }
}

/// CRC of the logical wire body (header bytes, payload, then any link
/// trailer), streamed — no wire buffer is materialized.
fn body_crc(header: &WireHeader, payload: &[u8], link: Option<LinkCtl>) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&header.wire_bytes(payload.len() as u16));
    crc.update(payload);
    if let Some(link) = link {
        crc.update(&link.wire_bytes());
    }
    crc.finish()
}

/// The reflected IEEE 802.3 polynomial (bit 31 holds the x^0
/// coefficient, bit 0 the x^31 one).
const POLY: u32 = 0xedb8_8320;

/// Bytes each of [`Crc32::update`]'s four chains covers per block.
const STRIPE: usize = 64;

/// Bytes [`Crc32::update`] folds into the state at once: one stripe per
/// chain.
const BLOCK: usize = 4 * STRIPE;

/// Slicing-by-8 tables. `T[0]` is the classic byte-at-a-time table;
/// `T[k][b]` is the CRC state of byte `b` followed by `k` zero bytes, so
/// eight lookups advance the state over an 8-byte word at once.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The shift tables that fold [`Crc32::update`]'s chains together.
/// `SHIFT[j - 1]` multiplies a state by x^(8·j·STRIPE) mod P, which is
/// what feeding it `j` stripes of zero bytes does; `SHIFT[j - 1][k][b]`
/// is the product of byte `b` in byte position `k` of the state, so four
/// lookups apply it.
static SHIFT: [[[u32; 256]; 4]; 3] = shift_tables();

const fn shift_tables() -> [[[u32; 256]; 4]; 3] {
    let mut t = [[[0u32; 256]; 4]; 3];
    let mut j = 0;
    while j < 3 {
        // x^(8·(j + 1)·STRIPE): x^0 (bit 31) times x once per zero bit.
        let mut factor = 1 << 31;
        let mut bit = 0;
        while bit < 8 * (j + 1) * STRIPE {
            factor = times_x(factor);
            bit += 1;
        }
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[j][k][b] = multmodp(factor, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        j += 1;
    }
    t
}

/// `a` times x mod P: one step of the CRC register over a zero bit.
const fn times_x(a: u32) -> u32 {
    (a >> 1) ^ (POLY & (a & 1).wrapping_neg())
}

/// `a` times `b` mod P, as zlib's `multmodp` computes it for
/// `crc32_combine`: `b` is multiplied by x once per bit of `a`, from the
/// x^0 coefficient up, and summed where that bit is set.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = times_x(b);
        m >>= 1;
    }
    product
}

/// Advances `state` over one 8-byte word. The state folds into the
/// first four bytes; those bytes are furthest from the word's end, so
/// they take the deepest tables.
fn slice8(state: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][w[4] as usize]
        ^ t[2][w[5] as usize]
        ^ t[1][w[6] as usize]
        ^ t[0][w[7] as usize]
}

/// Applies one shift table (a multiplication mod P) to `state`.
fn shift(table: &[[u32; 256]; 4], state: u32) -> u32 {
    table[0][(state & 0xff) as usize]
        ^ table[1][((state >> 8) & 0xff) as usize]
        ^ table[2][((state >> 16) & 0xff) as usize]
        ^ table[3][(state >> 24) as usize]
}

/// Incremental IEEE 802.3 CRC-32.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    /// Continues a checksum whose [`finish`](Crc32::finish)ed value is
    /// `crc`: feeding more bytes yields the CRC of the concatenation.
    pub fn resume(crc: u32) -> Self {
        Crc32(!crc)
    }

    /// Feeds bytes into the checksum.
    ///
    /// Each 256-byte block runs as four independent slicing-by-8 chains,
    /// one per 64-byte stripe: the first starts from the carried state,
    /// the others from zero. The register update is linear over GF(2),
    /// so the state after the block is the first chain's state shifted
    /// past the other three stripes, XORed with the second's shifted
    /// past two, the third's shifted past one and the fourth's.
    /// Whole words after the last block, then single bytes, go through
    /// one chain.
    pub fn update(&mut self, data: &[u8]) {
        const WORDS: usize = STRIPE / 8;
        let mut crc = self.0;
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        for block in blocks {
            let (words, _) = block.as_chunks::<8>();
            let mut c = [crc, 0, 0, 0];
            for i in 0..WORDS {
                for (lane, state) in c.iter_mut().enumerate() {
                    *state = slice8(*state, &words[lane * WORDS + i]);
                }
            }
            crc = shift(&SHIFT[2], c[0]) ^ shift(&SHIFT[1], c[1]) ^ shift(&SHIFT[0], c[2]) ^ c[3];
        }
        let (words, tail) = rest.as_chunks::<8>();
        for w in words {
            crc = slice8(crc, w);
        }
        for &byte in tail {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        self.0 = crc;
    }

    /// Finalizes and returns the checksum.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// IEEE 802.3 CRC-32 of a contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> WireHeader {
        WireHeader {
            dst_coord: MeshCoord { x: 3, y: 1 },
            src: NodeId(7),
            dst_addr: PhysAddr::new(0xdead_b000),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32 over the reflected IEEE polynomial: the
    /// definition the slicing tables must reproduce, sharing no table
    /// with them. Works on the raw (un-finished) state.
    fn reference_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                state = (state >> 1) ^ (0xedb8_8320 & (state & 1).wrapping_neg());
            }
        }
        state
    }

    fn reference_crc(data: &[u8]) -> u32 {
        !reference_update(0xffff_ffff, data)
    }

    /// `len` reproducible noise bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn slicing_matches_reference_at_every_length() {
        // Every length 0..=4200 (a page plus the largest header), hence
        // every count of whole words and tail bytes after the blocks,
        // from several start offsets.
        let data = noise(4200 + 16, 0x5eed);
        for start in [0usize, 1, 7, 15] {
            let mut state = 0xffff_ffff;
            for len in 0..=4200 {
                assert_eq!(
                    crc32(&data[start..start + len]),
                    !state,
                    "start {start} len {len}"
                );
                state = reference_update(state, &data[start + len..start + len + 1]);
            }
        }
    }

    #[test]
    fn chains_match_reference_at_block_boundaries() {
        // Either side of every block boundary up to 8 KiB, where the
        // chains take over from the one-chain loop and hand back to it,
        // and the largest payload, from several start offsets.
        let mut lens: Vec<usize> = (1..=8192 / BLOCK)
            .flat_map(|k| [k * BLOCK - 1, k * BLOCK, k * BLOCK + 1])
            .collect();
        lens.push(u16::MAX as usize);
        let data = noise(u16::MAX as usize + 16, 0xb10c);
        for start in [0usize, 1, 7, 15] {
            let (mut state, mut fed) = (0xffff_ffff, 0);
            for &len in &lens {
                state = reference_update(state, &data[start + fed..start + len]);
                fed = len;
                assert_eq!(
                    crc32(&data[start..start + len]),
                    !state,
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn shift_tables_advance_over_zero_stripes() {
        let mut states = vec![0, !0];
        states.extend((0..32).map(|bit| 1u32 << bit));
        states.extend(
            noise(400, 0x5417)
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        let zeros = [0u8; 3 * STRIPE];
        for (j, table) in SHIFT.iter().enumerate() {
            let stripes = &zeros[..(j + 1) * STRIPE];
            for &state in &states {
                assert_eq!(
                    shift(table, state),
                    reference_update(state, stripes),
                    "SHIFT[{j}], state {state:#010x}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Any split of the input across `update` calls, and any point
        /// where a finished CRC is resumed, gives the reference CRC of
        /// the whole input.
        #[test]
        fn split_and_resumed_updates_match_reference(
            data in proptest::collection::vec(proptest::any::<u8>(), 0usize..4200),
            cuts in proptest::collection::vec(proptest::any::<u16>(), 0usize..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c as usize % (data.len() + 1)).collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let expected = reference_crc(&data);

            let mut split = Crc32::new();
            for w in cuts.windows(2) {
                split.update(&data[w[0]..w[1]]);
            }
            proptest::prop_assert_eq!(split.finish(), expected);

            // Finish after every piece and resume from the finished value.
            let mut crc = Crc32::new().finish();
            for w in cuts.windows(2) {
                let mut c = Crc32::resume(crc);
                c.update(&data[w[0]..w[1]]);
                crc = c.finish();
                proptest::prop_assert_eq!(crc, reference_crc(&data[..w[1]]));
            }
            proptest::prop_assert_eq!(crc, expected);
        }
    }

    #[test]
    fn streamed_crc_matches_contiguous() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 13, 128, 255, 256] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data));
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = ShrimpPacket::new(header(), (0..=255).collect::<Vec<u8>>());
        let wire = p.encode();
        assert_eq!(wire.len() as u64, p.wire_len());
        let d = ShrimpPacket::decode(&wire).unwrap();
        assert_eq!(d, p);
        assert_eq!(d.header().dst_addr, PhysAddr::new(0xdead_b000));
        assert_eq!(d.header().src, NodeId(7));
        assert!(d.verify_crc());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = ShrimpPacket::new(header(), Vec::new());
        let d = ShrimpPacket::decode(&p.encode()).unwrap();
        assert!(d.payload().is_empty());
    }

    #[test]
    fn small_payload_is_inline() {
        let p = ShrimpPacket::new(header(), vec![1, 2, 3, 4]);
        assert!(matches!(p.into_payload(), Payload::Inline { len: 4, .. }));
        let p = ShrimpPacket::new(header(), vec![0; INLINE_PAYLOAD_MAX + 1]);
        assert!(matches!(p.into_payload(), Payload::Pooled(_)));
    }

    #[test]
    fn shared_payload_clone_is_refcounted() {
        let p = ShrimpPacket::new(header(), vec![9u8; 64]);
        let q = p.clone();
        assert_eq!(p.payload().as_ptr(), q.payload().as_ptr());
    }

    #[test]
    fn corruption_is_detected_anywhere() {
        let p = ShrimpPacket::new(header(), vec![5; 32]);
        let wire = p.encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            let r = ShrimpPacket::decode(&bad);
            assert!(r.is_err(), "flip at byte {i} must be detected");
        }
    }

    #[test]
    fn stored_crc_mismatch_detected() {
        let good = ShrimpPacket::new(header(), vec![7u8; 16]);
        assert!(good.verify_crc());
        let bad = ShrimpPacket::from_parts(*good.header(), vec![7u8; 16], good.crc() ^ 1);
        assert!(!bad.verify_crc());
        // The corrupted packet encodes to corrupted wire bytes.
        assert_eq!(ShrimpPacket::decode(&bad.encode()), Err(NicError::BadCrc));
    }

    #[test]
    fn truncation_is_detected() {
        let p = ShrimpPacket::new(header(), vec![1, 2, 3]);
        let wire = p.encode();
        assert!(matches!(
            ShrimpPacket::decode(&wire[..10]),
            Err(NicError::Malformed(_))
        ));
        // Cutting payload bytes breaks the CRC first.
        assert!(ShrimpPacket::decode(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn length_field_mismatch_detected() {
        // Hand-build a packet whose length field disagrees with its size,
        // with a valid CRC over the inconsistent body.
        let p = ShrimpPacket::new(header(), vec![9; 8]);
        let mut wire = p.encode();
        let body_end = wire.len() - 4;
        wire[12] = 4; // claim 4 bytes of payload instead of 8
        let crc = crc32(&wire[..body_end]);
        wire[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ShrimpPacket::decode(&wire),
            Err(NicError::Malformed("length field mismatch"))
        );
    }

    #[test]
    fn wire_len_matches_constant() {
        let p = ShrimpPacket::new(header(), vec![0; 4]);
        assert_eq!(p.wire_len(), WireHeader::WIRE_BYTES + 4 + 4);
        use shrimp_mesh::MeshPayload;
        assert_eq!(p.byte_len(), p.wire_len());
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn oversized_payload_rejected() {
        ShrimpPacket::new(header(), vec![0; 70_000]);
    }

    #[test]
    fn link_framed_roundtrip() {
        let link = LinkCtl {
            kind: FrameKind::Data,
            seq: 0xdead_0042,
        };
        let p = ShrimpPacket::with_link(header(), vec![3u8; 21], link);
        assert_eq!(
            p.wire_len(),
            WireHeader::WIRE_BYTES + 21 + LinkCtl::WIRE_BYTES + 4
        );
        let d = ShrimpPacket::decode(&p.encode()).unwrap();
        assert_eq!(d.link(), Some(link));
        assert_eq!(d, p);
        assert!(d.verify_crc());
    }

    #[test]
    fn control_frames_are_empty_and_checked() {
        let p = ShrimpPacket::control(MeshCoord { x: 1, y: 1 }, NodeId(4), FrameKind::Nack, 17);
        assert!(p.payload().is_empty());
        assert!(p.verify_crc());
        let d = ShrimpPacket::decode(&p.encode()).unwrap();
        assert_eq!(
            d.link(),
            Some(LinkCtl {
                kind: FrameKind::Nack,
                seq: 17
            })
        );
    }

    #[test]
    fn link_trailer_corruption_is_detected() {
        let p = ShrimpPacket::with_link(
            header(),
            vec![8u8; 12],
            LinkCtl {
                kind: FrameKind::Data,
                seq: 7,
            },
        );
        let wire = p.encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(
                ShrimpPacket::decode(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn structured_corrupt_bit_tracks_the_wire() {
        // Flipping any single bit via corrupt_bit must (a) fail
        // verify_crc and (b) produce the same wire image as flipping the
        // encoded bytes directly.
        for with_link in [false, true] {
            let fresh = || {
                if with_link {
                    ShrimpPacket::with_link(
                        header(),
                        vec![0xa5; 16],
                        LinkCtl {
                            kind: FrameKind::Data,
                            seq: 3,
                        },
                    )
                } else {
                    ShrimpPacket::new(header(), vec![0xa5; 16])
                }
            };
            let clean_wire = fresh().encode();
            for bit in 0..(fresh().wire_len() * 8) {
                let mut p = fresh();
                p.corrupt_bit(bit);
                assert!(!p.verify_crc(), "bit {bit} ({with_link}) must stale the CRC");
                // Length-field and frame-kind bits are folded elsewhere,
                // so only check wire equivalence for directly-mapped bits.
                let byte = (bit / 8) as usize;
                let kind_byte = WireHeader::WIRE_BYTES as usize + 16;
                if (12..14).contains(&byte) || (with_link && byte == kind_byte) {
                    continue;
                }
                let mut wire = clean_wire.clone();
                wire[byte] ^= 1 << (bit % 8);
                assert_eq!(p.encode(), wire, "bit {bit} maps onto the wire image");
            }
        }
    }
}
