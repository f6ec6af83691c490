//! Simulated eDonkey clients.
//!
//! A client wraps one peer of the synthetic population with the mutable
//! network-level state the measurement study cares about: the current
//! user hash (changes on reinstall), the current IP (changes under
//! DHCP), online/offline state, whether it sits behind a firewall, and
//! whether it answers *browse* requests (the user-disableable feature
//! the crawler depends on).

use edonkey_proto::md4::Digest;
use edonkey_proto::wire::{Message, PublishedFile};
use edonkey_trace::model::FileRef;
use edonkey_workload::population::Population;

/// Mutable network state of one client.
#[derive(Clone, Debug)]
pub struct Client {
    /// Index of the backing peer in the population.
    pub peer_idx: usize,
    /// Current user hash; reinstalls replace it.
    pub uid: Digest,
    /// Current IPv4 address; DHCP renewals replace it.
    pub ip: u32,
    /// Whether the client is connected today.
    pub online: bool,
    /// Firewalled clients cannot accept inbound connections (the
    /// crawler skips them: "filtered to keep only reachable clients").
    pub firewalled: bool,
    /// Whether the client answers browse requests.
    pub browsable: bool,
    /// Long-run probability of being online on a given day.
    pub availability: f64,
    /// Times this client reinstalled (uid history length).
    pub reinstalls: u32,
}

impl Client {
    /// Creates the day-zero state for a population peer.
    pub fn new(
        population: &Population,
        peer_idx: usize,
        firewalled: bool,
        browsable: bool,
        availability: f64,
    ) -> Self {
        let info = &population.peers[peer_idx].info;
        Client {
            peer_idx,
            uid: info.uid,
            ip: info.ip,
            online: false,
            firewalled,
            browsable,
            availability,
            reinstalls: 0,
        }
    }

    /// Whether the crawler can open a connection to this client today.
    pub fn reachable(&self) -> bool {
        self.online && !self.firewalled
    }

    /// Applies a reinstall: a fresh user hash derived from the previous
    /// one (deterministic, collision-free). The derivation is shared
    /// with the ideal observer's alias model so both paths produce the
    /// same uid chains.
    pub fn reinstall(&mut self) {
        self.reinstalls += 1;
        self.uid = edonkey_workload::dynamics::reinstall_uid(&self.uid, self.reinstalls);
    }

    /// Handles a client-to-client message against the client's current
    /// cache, exactly as the real client would on its TCP socket.
    ///
    /// `cache` is the client's current shared-file list (owned by the
    /// dynamics layer); `population` supplies file metadata.
    pub fn handle(
        &self,
        msg: &Message,
        cache: &[FileRef],
        population: &Population,
    ) -> Option<Message> {
        match msg {
            Message::BrowseRequest => {
                if !self.browsable {
                    return Some(Message::BrowseDenied);
                }
                let files = cache
                    .iter()
                    .map(|&f| {
                        let info = &population.files[f.index()].info;
                        PublishedFile {
                            file_id: info.id,
                            // No display names: the crawler needs content
                            // identity, size and kind (the released trace
                            // is anonymized anyway). The protocol's size
                            // field is 32 bits wide.
                            size: info.size.min(u32::MAX as u64) as u32,
                            kind: info.kind,
                        }
                    })
                    .collect();
                Some(Message::BrowseResult(files))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_workload::WorkloadConfig;

    fn pop() -> Population {
        let mut c = WorkloadConfig::test_scale(5);
        c.peers = 50;
        c.files = 400;
        c.cache_max = 100;
        Population::generate(c)
    }

    #[test]
    fn reinstall_changes_uid_deterministically() {
        let population = pop();
        let mut a = Client::new(&population, 0, false, true, 0.9);
        let mut b = Client::new(&population, 0, false, true, 0.9);
        let original = a.uid;
        a.reinstall();
        b.reinstall();
        assert_ne!(a.uid, original);
        assert_eq!(a.uid, b.uid, "deterministic");
        a.reinstall();
        assert_ne!(a.uid, b.uid);
        assert_eq!(a.reinstalls, 2);
    }

    #[test]
    fn browse_respects_the_toggle() {
        let population = pop();
        let open = Client::new(&population, 1, false, true, 0.9);
        let closed = Client::new(&population, 1, false, false, 0.9);
        let cache = vec![FileRef(0), FileRef(1)];
        match open.handle(&Message::BrowseRequest, &cache, &population) {
            Some(Message::BrowseResult(files)) => {
                assert_eq!(files.len(), 2);
                assert_eq!(files[0].file_id, population.files[0].info.id);
                assert_eq!(files[0].kind, population.files[0].info.kind);
            }
            other => panic!("expected BrowseResult, got {other:?}"),
        }
        assert_eq!(
            closed.handle(&Message::BrowseRequest, &cache, &population),
            Some(Message::BrowseDenied)
        );
    }
}
