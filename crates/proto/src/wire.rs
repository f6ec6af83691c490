//! The eDonkey messages the paper's crawler exchanges.
//!
//! The measurement infrastructure (Section 2.2) needs three exchanges:
//!
//! * **login**: a client opens a session with an index server;
//! * **`query-users`**: the nickname search the crawler sweeps with
//!   `aaa`…`zzz` patterns to discover clients, each reply capped by the
//!   server;
//! * **browse**: the crawler asks a client for its full shared-file list,
//!   which the client may refuse.
//!
//! The simulated network passes these as typed [`Message`] values; no
//! byte stream ever enters or leaves the program, so there is no frame
//! codec.

use crate::md4::Digest;
use crate::query::FileKind;

/// A 16-byte client user id ("user hash"). Stable across sessions unless
/// the user reinstalls the client — the aliasing source the paper filters.
pub type UserId = Digest;

/// Globally unique identifier of a file's *content* (not its name): the
/// ed2k MD4 hash.
///
/// Two files with identical bytes share the same `FileId` regardless of
/// their names — the property the eDonkey network uses to aggregate
/// sources, and the property the paper relies on when counting replicas.
pub type FileId = Digest;

/// One entry of a browse reply: a file the client shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublishedFile {
    /// Content identifier.
    pub file_id: FileId,
    /// File size in bytes, in the protocol's 32-bit size field (larger
    /// files are clamped to `u32::MAX`).
    pub size: u32,
    /// Media kind.
    pub kind: FileKind,
}

/// A user record as returned by the `query-users` server feature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserRecord {
    /// The user hash.
    pub uid: UserId,
    /// IPv4 address (0 for a firewalled client, which the crawler cannot
    /// reach).
    pub ip: u32,
}

/// One eDonkey protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    // --- client → server ---
    /// Session start: identify and register.
    Login {
        /// User hash.
        uid: UserId,
        /// Nickname.
        nick: String,
    },
    /// Nickname search — the crawler's discovery primitive.
    QueryUsers {
        /// Substring pattern matched against nicknames.
        pattern: String,
    },

    // --- server → client ---
    /// Reply to [`Message::QueryUsers`] — capped at 200 records by real
    /// servers, a cap the crawler works around by issuing many patterns.
    FoundUsers(Vec<UserRecord>),

    // --- client ↔ client ---
    /// Ask a peer for its full shared-file list (browse). Peers may refuse
    /// — the user-disabled feature that made the paper's crawl possible.
    BrowseRequest,
    /// Browse reply: the peer's cache contents.
    BrowseResult(Vec<PublishedFile>),
    /// Browse refused (feature disabled).
    BrowseDenied,
}
