//! Real-socket mode: run the NetChain dataplane's shard workers on loopback
//! UDP sockets, exchange the exact wire format, and drive them with a
//! socket-based client — the same protocol code as the simulator, no
//! simulator.
//!
//! Run with: `cargo run --example loopback_udp`

use netchain::core::{AgentConfig, ChainDirectory, HashRing};
use netchain::net::{NetClient, NetConfig, NetDataplane};
use netchain::sim::SimDuration;
use netchain::switch::PipelineConfig;
use netchain::wire::{Ipv4Addr, Key, Value};

fn main() -> std::io::Result<()> {
    // Three switches, chains of three, split over two shard workers.
    let ring = HashRing::new((0..3).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let key = Key::from_name("demo/counter");
    let config = NetConfig::new(ring, 2, PipelineConfig::tofino_prototype());
    let plane = NetDataplane::start(config, &[(key, Value::from_u64(0))])?;
    println!(
        "started {} shard workers on loopback:",
        plane.shard_addrs().len()
    );
    for (id, addr) in plane.shard_addrs().iter().enumerate() {
        println!("  shard {id} -> {addr}");
    }
    let chain = plane.ring().chain_for_key(&key).switches;
    println!("key installed on chain {chain:?}");

    let agent = AgentConfig::new(Ipv4Addr::for_host(0))
        .with_timeout(SimDuration::from_millis(50))
        .with_max_retries(5);
    let mut client = NetClient::connect(&plane, agent, ChainDirectory::new(plane.ring().clone()))?;
    for i in 1..=5u64 {
        let write = client.write(key, Value::from_u64(i))?;
        println!(
            "write {i}: status {:?}, seq {}, latency {}",
            write.status, write.seq, write.latency
        );
    }
    let read = client.read(key)?;
    println!(
        "read back: value {:?} at seq {} (version regressions: {})",
        read.value.as_u64(),
        read.seq,
        client.agent_stats().version_regressions
    );
    assert_eq!(read.value.as_u64(), Some(5));

    // Every chain replica holds the final value: chain replication applied it
    // everywhere before the tail replied.
    let report = plane.shutdown();
    let shard = report
        .shards
        .iter()
        .find(|s| s.owns(&key))
        .expect("one shard owns the key");
    for ip in chain {
        let sw = shard.switch(ip).expect("chain member hosted");
        if let Some(slot) = sw.kv().lookup(&key) {
            println!("  {ip} stores {:?}", sw.kv().read_value(slot).as_u64());
        }
    }
    println!("loopback deployment OK");
    Ok(())
}
