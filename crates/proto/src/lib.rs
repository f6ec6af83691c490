//! `edonkey-proto`: the eDonkey protocol substrate of the EuroSys'06
//! reproduction.
//!
//! The paper's measurement infrastructure is a modified eDonkey client
//! (MLdonkey) crawling a live network. This crate rebuilds the protocol
//! pieces that crawl depends on:
//!
//! * [`md4`] — the MD4 digest (RFC 1320), eDonkey's content hash; it
//!   also derives generated peer and file ids and pins the
//!   reproduction's outputs;
//! * [`query`] — the media kinds a browse reply reports;
//! * [`wire`] — the login, `query-users` and browse messages the
//!   simulated crawl exchanges.
//!
//! Everything is implemented from scratch; no cryptography or protocol
//! crates are used.
//!
//! # Examples
//!
//! ```
//! use edonkey_proto::md4::Md4;
//! use edonkey_proto::query::FileKind;
//! use edonkey_proto::wire::{Message, PublishedFile};
//!
//! // A browse reply lists a peer's shared files by content hash, with
//! // the size and kind the crawler records.
//! let reply = Message::BrowseResult(vec![PublishedFile {
//!     file_id: Md4::digest(b"file body"),
//!     size: 9,
//!     kind: FileKind::Document,
//! }]);
//! let Message::BrowseResult(files) = &reply else { unreachable!() };
//! assert_eq!((files[0].size, files[0].kind), (9, FileKind::Document));
//! ```

pub mod md4;
pub mod query;
pub mod wire;

pub use md4::{Digest, Md4};
pub use query::FileKind;
pub use wire::{FileId, Message, PublishedFile, UserId, UserRecord};
