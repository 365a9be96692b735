// lint-as: crates/sim/src/exec_bad.rs
// The shard execution path may not touch observers or shared flags
// (those belong to the coordinator's merge), and every channel side
// needs its type-paired counterpart.

pub struct Coordinator {
    pub jobs: Sender<ShardJob>, //~ R8
}

pub fn drive_shard(shard: &mut Shard, obs: &mut Obs) {
    step(shard, obs);
}

fn step(shard: &mut Shard, obs: &mut Obs) {
    obs.on_probe_batch(shard.t); //~ R8
    Arc::make_mut(&mut shard.flags).halt = true; //~ R8
}
