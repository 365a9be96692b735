// lint-as: crates/sim/src/exec_waived.rs
// An accounted exception: a probe counter bumped on the shard path,
// waived where it happens.

pub fn drive_shard(shard: &mut Shard, obs: &mut Obs) {
    // hotspots-lint: allow(executor-isolation) reason="counter is shard-local and merged later"
    obs.on_probe_batch(shard.t);
}
