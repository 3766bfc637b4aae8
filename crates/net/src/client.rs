//! A closed-loop client over a running [`NetDataplane`]: one operation at a
//! time, each sent over a real UDP socket to the worker owning its key and
//! retried by the sans-IO [`AgentCore`] until it completes, is abandoned, or
//! runs past its deadline.

use crate::NetDataplane;
use netchain_core::{AgentConfig, AgentCore, ChainDirectory, CompletedQuery, HashRing, KvOp};
use netchain_fabric::shard_of_key;
use netchain_sim::SimTime;
use netchain_wire::{Ipv4Addr, Key, NetChainPacket, Value, MAX_FRAME_LEN};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client issuing NetChain operations to a [`NetDataplane`] over loopback
/// sockets. Its reply route is registered on connect and removed on drop.
pub struct NetClient {
    socket: UdpSocket,
    agent: AgentCore,
    client_ip: Ipv4Addr,
    routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>>,
    ring: HashRing,
    shard_addrs: Vec<SocketAddr>,
    epoch: Instant,
    /// Datagrams longer than the longest legal frame, counted not truncated.
    oversized: u64,
    /// Replies that completed an *earlier* operation (one whose `execute`
    /// already returned) — observed, counted, never misattributed.
    late_completions: u64,
}

impl NetClient {
    /// Binds a client socket and registers `config.client_ip`'s reply route
    /// with `plane`. The caller supplies the agent's configuration and chain
    /// directory, so request ids and chains can line up with another
    /// execution of the same script (the simulator's host, say).
    pub fn connect(
        plane: &NetDataplane,
        config: AgentConfig,
        directory: ChainDirectory,
    ) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let client_ip = config.client_ip;
        plane.register_client(client_ip, socket.local_addr()?);
        Ok(NetClient {
            socket,
            agent: AgentCore::new(config, directory),
            client_ip,
            routes: Arc::clone(&plane.routes),
            ring: plane.ring().clone(),
            shard_addrs: plane.shard_addrs(),
            epoch: Instant::now(),
            oversized: 0,
            late_completions: 0,
        })
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Sends `pkt` to the worker owning its key.
    fn transmit(&self, pkt: &NetChainPacket) -> std::io::Result<()> {
        let shard = shard_of_key(&self.ring, &pkt.netchain.key, self.shard_addrs.len());
        self.socket
            .send_to(&pkt.to_bytes(), self.shard_addrs[shard])?;
        Ok(())
    }

    /// Executes one operation synchronously, retrying on timeout, and returns
    /// the completed query — or an error if the overall deadline expires or
    /// the agent abandons the operation after its retries.
    pub fn execute(&mut self, op: KvOp, deadline: Duration) -> std::io::Result<CompletedQuery> {
        let start = Instant::now();
        let (request_id, pkt) = self.agent.begin(self.now(), op);
        self.transmit(&pkt)?;
        // One byte past the longest legal frame: any datagram that does not
        // fit is detectably oversized rather than silently truncated.
        let mut buf = [0u8; MAX_FRAME_LEN + 1];
        loop {
            if start.elapsed() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "operation deadline exceeded",
                ));
            }
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    if len > MAX_FRAME_LEN {
                        self.oversized += 1;
                    } else if let Ok(reply) = NetChainPacket::from_bytes(&buf[..len]) {
                        if let Some(done) = self.agent.on_reply(self.now(), &reply) {
                            if done.request_id == request_id {
                                return Ok(done);
                            }
                            // A straggler completed an earlier operation whose
                            // `execute` already returned; count it, never
                            // attribute it to the op running now.
                            self.late_completions += 1;
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
            // Drive retransmissions for anything that timed out.
            let outcome = self.agent.poll_retries(self.now());
            for retry in outcome.retransmit {
                self.transmit(&retry)?;
            }
            // Only an abandonment of *this* operation fails it; an earlier
            // in-flight request exhausting its budget concurrently is not
            // this op's outcome.
            if outcome.abandoned.iter().any(|q| q.request_id == request_id) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "operation abandoned after retries",
                ));
            }
        }
    }

    /// Convenience: write a value.
    pub fn write(&mut self, key: Key, value: Value) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Write(key, value), Duration::from_secs(2))
    }

    /// Convenience: read a value.
    pub fn read(&mut self, key: Key) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Read(key), Duration::from_secs(2))
    }

    /// Convenience: compare-and-swap.
    pub fn cas(&mut self, key: Key, expected: u64, new: u64) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Cas { key, expected, new }, Duration::from_secs(2))
    }

    /// Agent statistics (retries, latency, version regressions).
    pub fn agent_stats(&self) -> &netchain_core::AgentStats {
        self.agent.stats()
    }

    /// The client's virtual IP.
    pub fn client_ip(&self) -> Ipv4Addr {
        self.client_ip
    }

    /// Datagrams received that exceeded the maximum legal frame length.
    pub fn oversized(&self) -> u64 {
        self.oversized
    }

    /// Replies that completed an earlier (already returned) operation.
    pub fn late_completions(&self) -> u64 {
        self.late_completions
    }
}

impl Drop for NetClient {
    /// Deregisters the client's reply route: long-lived dataplanes churn
    /// through clients, and a stale entry would alias any future client that
    /// recycles this virtual IP.
    fn drop(&mut self) {
        self.routes.write().remove(&self.client_ip);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::NetConfig;
    use netchain_sim::SimDuration;
    use netchain_switch::PipelineConfig;
    use netchain_wire::QueryStatus;

    /// A client for host `id` with the loopback demo's retry budget.
    pub(crate) fn connect(plane: &NetDataplane, id: u32) -> NetClient {
        let config = AgentConfig::new(Ipv4Addr::for_host(id))
            .with_timeout(SimDuration::from_millis(50))
            .with_max_retries(5);
        NetClient::connect(plane, config, ChainDirectory::new(plane.ring().clone()))
            .expect("client socket")
    }

    fn start(populate: &[(Key, Value)]) -> NetDataplane {
        let ring = HashRing::new((0..3).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
        NetDataplane::start(NetConfig::new(ring, 2, PipelineConfig::tiny(64)), populate)
            .expect("bind loopback")
    }

    #[test]
    fn dropping_a_client_deregisters_its_route() {
        let plane = start(&[]);
        let client = connect(&plane, 0);
        let ip = client.client_ip();
        assert!(plane.routes.read().contains_key(&ip));
        drop(client);
        assert!(
            !plane.routes.read().contains_key(&ip),
            "stale route left behind would alias a recycled client IP"
        );
    }

    #[test]
    fn stragglers_and_oversized_datagrams_are_counted_not_misattributed() {
        let key = Key::from_name("straggler");
        let plane = start(&[(key, Value::from_u64(3))]);
        let mut client = connect(&plane, 0);
        // A zero deadline gives up before the reply can arrive: `Err`, with
        // the query still in flight.
        assert!(client.execute(KvOp::Read(key), Duration::ZERO).is_err());
        // An oversized datagram lands on the client socket ahead of the
        // next op's reply.
        let junk = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let client_addr = client.socket.local_addr().expect("addr");
        junk.send_to(&vec![0u8; MAX_FRAME_LEN + 40], client_addr)
            .expect("send oversized");
        // The next op on the same key (same worker, so replies arrive in
        // order) first drains the straggler's reply, then its own.
        let write = client.write(key, Value::from_u64(4)).expect("write");
        assert_eq!(write.request_id, 2, "completed the straggler instead");
        assert_eq!(write.status, Some(QueryStatus::Ok));
        assert_eq!(client.late_completions(), 1);
        assert_eq!(client.oversized(), 1);
    }
}
