//! An eDonkey index server, as the crawler sees it.
//!
//! Servers form the first tier of the hybrid architecture (Section 2.1).
//! The crawl needs only two things from them: a session per connected
//! client, and — crucially for the paper — the legacy `query-users`
//! nickname search that some servers still implement, capped at
//! [`Server::MAX_USER_REPLY`] records per reply.
//!
//! The server speaks [`edonkey_proto::wire::Message`] values, so the
//! crawl runs the protocol's login and `query-users` exchange as a
//! real client would.

use std::collections::HashMap;

use edonkey_proto::wire::{Message, UserRecord};

/// A connected client's registration state.
#[derive(Clone, Debug)]
struct Session {
    uid: edonkey_proto::wire::UserId,
    nick: String,
    ip: u32,
}

/// One index server.
pub struct Server {
    /// Whether this server supports the legacy `query-users` feature
    /// ("some old servers support the query-users functionality").
    pub supports_query_users: bool,
    sessions: HashMap<u32, Session>,
    /// nickname trigram → client ids, for `query-users` at crawl scale
    /// (the crawler sweeps every `aaa`…`zzz` pattern; a linear scan per
    /// pattern would be quadratic in practice).
    nick_index: HashMap<[u8; 3], Vec<u32>>,
    next_low_id: u32,
}

/// The lowercase trigrams of a nickname, deduplicated.
fn trigrams(nick: &str) -> Vec<[u8; 3]> {
    let lower = nick.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut grams: Vec<[u8; 3]> = bytes.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    grams.sort_unstable();
    grams.dedup();
    grams
}

impl Server {
    /// Reply cap for `query-users`, matching real servers ("server
    /// replies are limited to 200 users per query").
    pub const MAX_USER_REPLY: usize = 200;

    /// Creates a server with no sessions.
    pub fn new(supports_query_users: bool) -> Self {
        Server {
            supports_query_users,
            sessions: HashMap::new(),
            nick_index: HashMap::new(),
            next_low_id: 1,
        }
    }

    /// Number of connected clients.
    pub fn user_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles a client connection: a `Login` message from a client at
    /// `ip` (0 marks a firewalled client that cannot accept inbound
    /// connections and therefore gets a *low id*).
    ///
    /// Returns the assigned client id, the session key the caller must
    /// use for subsequent messages.
    pub fn connect(&mut self, msg: &Message, ip: u32) -> u32 {
        let Message::Login { uid, nick } = msg else {
            panic!("connect expects a Login message, got {msg:?}");
        };
        // High-id clients are addressed by IP; firewalled clients get a
        // small sequential id.
        let client_id = if ip != 0 {
            ip
        } else {
            let id = self.next_low_id;
            self.next_low_id += 1;
            id
        };
        self.sessions.insert(
            client_id,
            Session {
                uid: *uid,
                nick: nick.clone(),
                ip,
            },
        );
        for gram in trigrams(nick) {
            self.nick_index.entry(gram).or_default().push(client_id);
        }
        client_id
    }

    /// Handles a client disconnect: drops its session and nickname.
    pub fn disconnect(&mut self, client_id: u32) {
        let Some(session) = self.sessions.remove(&client_id) else {
            return;
        };
        for gram in trigrams(&session.nick) {
            if let Some(ids) = self.nick_index.get_mut(&gram) {
                ids.retain(|&id| id != client_id);
                if ids.is_empty() {
                    self.nick_index.remove(&gram);
                }
            }
        }
    }

    /// Handles an in-session message, returning the reply (if any).
    ///
    /// # Panics
    ///
    /// Panics if `client_id` has no session (a caller bug: the network
    /// layer owns connection state), or if `msg` is not a server request.
    pub fn handle(&self, client_id: u32, msg: &Message) -> Option<Message> {
        assert!(
            self.sessions.contains_key(&client_id),
            "message from unconnected client {client_id}"
        );
        match msg {
            Message::QueryUsers { pattern } => {
                if !self.supports_query_users {
                    // New servers silently drop the query ("a server
                    // either does not reply…").
                    return None;
                }
                Some(Message::FoundUsers(self.query_users(pattern)))
            }
            other => panic!("server cannot handle {other:?}"),
        }
    }

    /// Nickname substring search, capped at [`Self::MAX_USER_REPLY`].
    ///
    /// Three-letter patterns (the crawler's whole query space) go
    /// through the trigram index; anything else falls back to a scan.
    fn query_users(&self, pattern: &str) -> Vec<UserRecord> {
        let mut ids: Vec<u32> = if pattern.len() == 3 {
            let key = {
                let lower = pattern.to_ascii_lowercase();
                let b = lower.as_bytes();
                [b[0], b[1], b[2]]
            };
            self.nick_index.get(&key).cloned().unwrap_or_default()
        } else {
            self.sessions
                .iter()
                .filter(|(_, s)| s.nick.contains(pattern))
                .map(|(&id, _)| id)
                .collect()
        };
        ids.sort_unstable();
        ids.truncate(Self::MAX_USER_REPLY);
        ids.iter()
            .map(|id| {
                let s = &self.sessions[id];
                UserRecord {
                    uid: s.uid,
                    ip: s.ip,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Digest;

    fn login(n: u8, nick: &str) -> Message {
        Message::Login {
            uid: Digest([n; 16]),
            nick: nick.into(),
        }
    }

    fn found(s: &Server, cid: u32, pattern: &str) -> Vec<UserRecord> {
        let Some(Message::FoundUsers(users)) = s.handle(
            cid,
            &Message::QueryUsers {
                pattern: pattern.into(),
            },
        ) else {
            panic!("expected FoundUsers")
        };
        users
    }

    #[test]
    fn login_assigns_ids() {
        let mut s = Server::new(true);
        assert_eq!(s.connect(&login(1, "alice"), 0x0a00_0001), 0x0a00_0001);
        // Firewalled client gets a low id.
        let low = s.connect(&login(2, "bob"), 0);
        assert!(low < 1000);
        assert_eq!(s.user_count(), 2);
    }

    #[test]
    fn query_users_cap_and_matching() {
        let mut s = Server::new(true);
        for i in 0..250u32 {
            let nick = format!("aaa{i}");
            s.connect(&login((i % 256) as u8, &nick), 1000 + i);
        }
        assert_eq!(found(&s, 1000, "aaa").len(), Server::MAX_USER_REPLY);
        // Nickname `aaa{i}` logged in with uid `[i; 16]`.
        let uids: Vec<u8> = found(&s, 1000, "aaa7").iter().map(|u| u.uid.0[0]).collect();
        assert_eq!(
            uids,
            [7, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79],
            "aaa7 and aaa7x"
        );
    }

    #[test]
    fn query_users_unsupported_drops() {
        let mut s = Server::new(false);
        let cid = s.connect(&login(1, "alice"), 5);
        assert_eq!(
            s.handle(
                cid,
                &Message::QueryUsers {
                    pattern: "ali".into()
                }
            ),
            None
        );
    }

    #[test]
    fn disconnect_drops_the_session_and_nickname() {
        let mut s = Server::new(true);
        let alice = s.connect(&login(1, "alice"), 5);
        let bob = s.connect(&login(2, "bob"), 6);
        assert_eq!(found(&s, bob, "ali").len(), 1);
        s.disconnect(alice);
        assert_eq!(s.user_count(), 1);
        assert!(found(&s, bob, "ali").is_empty());
        // Idempotent.
        s.disconnect(alice);
        assert_eq!(s.user_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unconnected client")]
    fn unconnected_client_panics() {
        let s = Server::new(true);
        s.handle(
            42,
            &Message::QueryUsers {
                pattern: "abc".into(),
            },
        );
    }
}
