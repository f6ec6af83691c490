//! The simulated eDonkey network: clients with churn, index servers,
//! and the day-level main loop that the crawler observes.
//!
//! This layer makes the paper's measurement *artefacts* mechanistic:
//!
//! * firewalled clients are unreachable (and silently missing from the
//!   trace);
//! * users disable browsing (browse-denied clients are contacted but
//!   yield nothing);
//! * DHCP renewals and client reinstalls create the IP/uid aliases the
//!   filtering stage removes;
//! * clients come and go (availability), so even a perfect crawler
//!   misses days — the gaps extrapolation must fill.

use edonkey_proto::wire::Message;
use edonkey_trace::model::FileRef;
use edonkey_workload::dynamics::Dynamics;
use edonkey_workload::population::Population;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::Client;
use crate::fault::FaultPlan;
use crate::server::Server;

/// Network-level parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// RNG seed (independent of the population seed).
    pub seed: u64,
    /// Number of index servers.
    pub servers: usize,
    /// Fraction of servers still supporting `query-users` (the feature
    /// was disappearing; only "some old servers" kept it).
    pub query_users_fraction: f64,
    /// Probability a client is firewalled (low-id).
    pub firewalled_prob: f64,
    /// Probability a client has browsing disabled.
    pub browse_disabled_prob: f64,
    /// Per-day availability is drawn uniformly from this range.
    pub availability_range: (f64, f64),
    /// Daily probability of a DHCP address change.
    pub dhcp_daily_prob: f64,
    /// Daily probability of a reinstall (fresh user hash).
    pub reinstall_daily_prob: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            seed: 0xed0e,
            servers: 5,
            query_users_fraction: 0.6,
            firewalled_prob: 0.25,
            browse_disabled_prob: 0.30,
            availability_range: (0.35, 0.95),
            dhcp_daily_prob: 0.02,
            reinstall_daily_prob: 0.002,
        }
    }
}

/// The running network.
pub struct Network<'a> {
    /// The backing population.
    pub population: &'a Population,
    /// Network configuration.
    pub config: NetConfig,
    /// Per-client mutable state.
    pub clients: Vec<Client>,
    /// The servers (rebuilt session-wise each day; eDonkey clients
    /// reconnect constantly and servers only index connected clients).
    pub servers: Vec<Server>,
    /// Today's cache of every client (peer-indexed, sorted).
    caches: Vec<Vec<FileRef>>,
    dynamics: Dynamics<'a>,
    rng: StdRng,
    day_offset: u32,
    /// Fresh-IP counter for DHCP renewals (per-AS plan offset; starts
    /// beyond the population's static allocations).
    dhcp_counter: u32,
    /// Fault schedule for churn bursts; `None` (and any quiet plan)
    /// leaves the network byte-identical to a run without faults.
    fault_plan: Option<FaultPlan>,
}

impl<'a> Network<'a> {
    /// Brings up the network at the population's start day.
    pub(crate) fn new(population: &'a Population, config: NetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clients: Vec<Client> = (0..population.peers.len())
            .map(|idx| {
                let firewalled = rng.gen_bool(config.firewalled_prob);
                let browsable = !rng.gen_bool(config.browse_disabled_prob);
                let (lo, hi) = config.availability_range;
                let availability = rng.gen_range(lo..hi);
                Client::new(population, idx, firewalled, browsable, availability)
            })
            .collect();
        let servers: Vec<Server> = (0..config.servers)
            .map(|i| Server::new((i as f64) < config.query_users_fraction * config.servers as f64))
            .collect();
        let mut dyn_rng = StdRng::seed_from_u64(config.seed ^ 0x00d1_ce5e);
        let dynamics = Dynamics::new(population, &mut dyn_rng);
        let caches = dynamics.snapshot();
        Network {
            population,
            config,
            clients,
            servers,
            caches,
            dynamics,
            rng,
            day_offset: 0,
            dhcp_counter: 1 << 19, // above any static host index
            fault_plan: None,
        }
    }

    /// Installs the fault schedule (churn bursts are applied by the
    /// network; everything else is crawler-side). Call before the first
    /// [`Network::refresh_sessions`].
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The current absolute day.
    pub(crate) fn day(&self) -> u32 {
        self.population.config.start_day + self.day_offset
    }

    /// Advances to the next day: cache churn, availability, DHCP and
    /// reinstall events, and server sessions.
    pub(crate) fn step_day(&mut self) {
        self.day_offset += 1;
        let mut dyn_rng =
            StdRng::seed_from_u64(self.config.seed ^ 0x00d1_ce5e ^ u64::from(self.day_offset));
        self.dynamics.step(&mut dyn_rng);
        self.caches = self.dynamics.snapshot();
        self.refresh_sessions();
    }

    /// (Re)connects today's online clients to servers. Also called for
    /// day zero.
    pub(crate) fn refresh_sessions(&mut self) {
        // Fresh servers each day: sessions are daily in this model.
        for server in &mut self.servers {
            *server = Server::new(server.supports_query_users);
        }
        let n_servers = self.servers.len();
        for idx in 0..self.clients.len() {
            // Churn events.
            if self.rng.gen_bool(self.config.dhcp_daily_prob) {
                let asn = self.population.peers[idx].info.asn;
                self.clients[idx].ip = self.population.geography.ip_for(asn, self.dhcp_counter);
                self.dhcp_counter += 1;
            }
            if self.rng.gen_bool(self.config.reinstall_daily_prob) {
                self.clients[idx].reinstall();
            }
            let mut online = self.rng.gen_bool(self.clients[idx].availability);
            // Churn bursts strike *after* the availability roll so a
            // quiet plan leaves the rng stream untouched.
            if online {
                if let Some(plan) = &self.fault_plan {
                    if plan.burst_offline(idx, self.day_offset) {
                        online = false;
                    }
                }
            }
            self.clients[idx].online = online;
            if !online {
                continue;
            }
            // Connect to a random server, exactly as a client would on
            // login.
            let server_idx = self.rng.gen_range(0..n_servers);
            let client = &self.clients[idx];
            let login = Message::Login {
                uid: client.uid,
                nick: self.population.peers[idx].nick.clone(),
            };
            let wire_ip = if client.firewalled { 0 } else { client.ip };
            self.servers[server_idx].connect(&login, wire_ip);
        }
    }

    /// Index lookup used by the crawler: which client currently holds
    /// this uid (linear scan is fine for the crawler's rate; browses go
    /// through [`Network::deliver_to_idx`]).
    pub(crate) fn client_by_uid(&self, uid: &edonkey_proto::md4::Digest) -> Option<usize> {
        self.clients.iter().position(|c| c.uid == *uid)
    }

    /// Sends a client-to-client message to client `idx`, as the crawler
    /// does. Returns `None` when the client is unreachable today (offline
    /// or firewalled) or ignores the message.
    pub(crate) fn deliver_to_idx(&self, idx: usize, msg: &Message) -> Option<Message> {
        let client = &self.clients[idx];
        if !client.reachable() {
            return None;
        }
        client.handle(msg, &self.caches[client.peer_idx], self.population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_workload::WorkloadConfig;

    fn pop() -> Population {
        let mut c = WorkloadConfig::test_scale(7);
        c.peers = 120;
        c.files = 800;
        c.days = 6;
        c.cache_max = 200;
        Population::generate(c)
    }

    #[test]
    fn network_boots_and_steps() {
        let population = pop();
        let mut net = Network::new(&population, NetConfig::default());
        net.refresh_sessions();
        let day0 = net.day();
        let online0 = net.clients.iter().filter(|c| c.online).count();
        assert!(online0 > 0, "some clients must be online");
        let sessions: usize = net.servers.iter().map(|s| s.user_count()).sum();
        assert_eq!(sessions, online0, "every online client holds one session");
        net.step_day();
        assert_eq!(net.day(), day0 + 1);
    }

    #[test]
    fn churn_creates_aliases_eventually() {
        let population = pop();
        let config = NetConfig {
            dhcp_daily_prob: 0.5,
            reinstall_daily_prob: 0.3,
            ..Default::default()
        };
        let mut net = Network::new(&population, config);
        let uids_before: Vec<_> = net.clients.iter().map(|c| c.uid).collect();
        let ips_before: Vec<_> = net.clients.iter().map(|c| c.ip).collect();
        for _ in 0..3 {
            net.step_day();
        }
        let uid_changes = net
            .clients
            .iter()
            .zip(&uids_before)
            .filter(|(c, old)| c.uid != **old)
            .count();
        let ip_changes = net
            .clients
            .iter()
            .zip(&ips_before)
            .filter(|(c, old)| c.ip != **old)
            .count();
        assert!(uid_changes > 10, "reinstalls: {uid_changes}");
        assert!(ip_changes > 30, "dhcp churn: {ip_changes}");
    }

    #[test]
    fn deliver_respects_reachability() {
        let population = pop();
        let mut net = Network::new(&population, NetConfig::default());
        net.refresh_sessions();
        // Find an online, reachable, browsable client.
        let Some(idx) = net
            .clients
            .iter()
            .position(|c| c.online && !c.firewalled && c.browsable)
        else {
            panic!("expected at least one reachable client")
        };
        let reply = net.deliver_to_idx(idx, &Message::BrowseRequest);
        assert!(matches!(reply, Some(Message::BrowseResult(_))));
        assert_eq!(net.client_by_uid(&net.clients[idx].uid), Some(idx));
        // Unknown uid.
        assert_eq!(
            net.client_by_uid(&edonkey_proto::md4::Digest([0xEE; 16])),
            None
        );
        // Firewalled client.
        net.clients[idx].firewalled = true;
        assert_eq!(net.deliver_to_idx(idx, &Message::BrowseRequest), None);
        // Offline client.
        net.clients[idx].firewalled = false;
        net.clients[idx].online = false;
        assert_eq!(net.deliver_to_idx(idx, &Message::BrowseRequest), None);
    }
}
