//! The per-thread executor: IR interpretation + the transaction retry
//! driver.

use crate::bytecode::{BytecodeFunc, OpCode, BIN_OPS, CMP_OPS, NO_REG};
use crate::prepared::{Prepared, PreparedFunc};
use htm_sim::{AbortCause, Addr, Core, FallbackPolicy, Spin, SpinUntil, TxError};
use stagger_core::{Interp, RuntimeConfig, SharedRt, ThreadRuntime};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use tm_ir::{FuncId, FuncKind, Inst};

/// Sentinel "PC" used for the transactional global-lock subscription read.
/// Odd on purpose: real instruction PCs are 4-byte aligned, so the 12-bit
/// tag `1` can never alias a table entry.
const GLOBAL_LOCK_SUB_PC: u64 = 1;

/// Sentinel "PC" for the hybrid-TM per-access ownership-stripe read (odd
/// for the same non-aliasing reason as [`GLOBAL_LOCK_SUB_PC`]).
const HYBRID_STRIPE_SUB_PC: u64 = 3;

/// Dynamic execution statistics of one thread (Table 3's "Dynamic Stats").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// All interpreted instructions (µ-ops), any mode.
    pub insts: u64,
    /// Committed hardware transactions (irrevocable completions excluded).
    pub committed_txns: u64,
    /// µ-ops executed inside committed transaction attempts.
    pub committed_insts: u64,
    /// ALPoints executed inside committed transaction attempts.
    pub committed_anchors: u64,
    /// Aborted hardware attempts.
    pub aborted_attempts: u64,
    /// Transactions completed in irrevocable (global-lock) mode.
    pub irrevocable_txns: u64,
}

impl ExecStats {
    pub fn add(&mut self, o: &ExecStats) {
        self.insts += o.insts;
        self.committed_txns += o.committed_txns;
        self.committed_insts += o.committed_insts;
        self.committed_anchors += o.committed_anchors;
        self.aborted_attempts += o.aborted_attempts;
        self.irrevocable_txns += o.irrevocable_txns;
    }

    /// Mean µ-ops per committed transaction.
    pub fn uops_per_txn(&self) -> f64 {
        if self.committed_txns == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.committed_txns as f64
        }
    }

    /// Mean executed anchors (ALPoints) per committed transaction.
    pub fn anchors_per_txn(&self) -> f64 {
        if self.committed_txns == 0 {
            0.0
        } else {
            self.committed_anchors as f64 / self.committed_txns as f64
        }
    }
}

/// One simulated thread's interpreter + Staggered Transactions runtime.
pub struct Executor<'c> {
    prepared: Arc<Prepared>,
    pub rt: ThreadRuntime<'c>,
    rng: u64,
    pub stats: ExecStats,
    attempt_insts: u64,
    attempt_anchors: u64,
    /// True while executing the hybrid-TM *software* fallback path: plain
    /// memory accesses then go through the per-line ownership-stripe
    /// instrumentation instead of raw coherence ops.
    sw_fallback: bool,
    /// Ownership-stripe words held by the current software fallback.
    sw_stripes: Vec<Addr>,
}

impl<'c> Executor<'c> {
    pub fn new(
        compiled: &'c stagger_compiler::Compiled,
        prepared: Arc<Prepared>,
        rt_cfg: RuntimeConfig,
        shared: SharedRt,
        tid: usize,
        seed: u64,
    ) -> Self {
        Executor {
            prepared,
            rt: ThreadRuntime::new(rt_cfg, compiled, shared, tid),
            rng: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tid as u64 + 1)
                | 1,
            stats: ExecStats::default(),
            attempt_insts: 0,
            attempt_anchors: 0,
            sw_fallback: false,
            sw_stripes: Vec::new(),
        }
    }

    fn rand_below(&mut self, bound: u64) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) % bound
    }

    /// Call function `fid`. Atomic functions run the full transaction
    /// protocol; normal functions execute plainly (and must not be
    /// transactional-only helpers invoked outside a transaction — they run
    /// with plain coherence semantics in that case).
    pub async fn call(&mut self, core: &mut Core<'_>, fid: FuncId, args: &[u64]) -> u64 {
        let prepared = self.prepared.clone();
        let f = &prepared.funcs[fid.index()];
        match f.kind {
            FuncKind::Atomic { ab_id } => self.run_txn(core, &prepared, fid, ab_id, args).await,
            FuncKind::Normal => self
                .exec_function(core, &prepared, fid, args, None)
                .await
                .expect("plain execution cannot abort"),
        }
    }

    /// The retry protocol of paper Section 6: up to `max_retries` hardware
    /// attempts with polite backoff, global-lock subscription immediately
    /// before commit, then irrevocable execution under the global lock.
    ///
    /// Boxed future: `run_txn` and [`Self::exec_function`] are mutually
    /// recursive, so neither can be a plain `async fn`.
    fn run_txn<'a, 'm>(
        &'a mut self,
        core: &'a mut Core<'m>,
        prepared: &'a Prepared,
        fid: FuncId,
        ab_id: u32,
        args: &'a [u64],
    ) -> Pin<Box<dyn Future<Output = u64> + Send + 'a>> {
        Box::pin(async move {
            let gl = self.rt.global_lock();
            let fallback = self.rt.shared().fallback;
            let spin = self.rt.cfg.lock_spin;
            let max_retries = self.rt.cfg.max_retries;
            let mut attempt: u32 = 0;
            loop {
                if attempt >= max_retries {
                    if fallback == FallbackPolicy::HybridStm {
                        return self.run_sw_fallback(core, prepared, fid, args).await;
                    }
                    // Irrevocable mode: acquire the global lock and run
                    // non-speculatively. Plain stores doom any racing
                    // speculative readers/writers (requester wins).
                    gl.acquire(core, spin).await;
                    let t0 = core.now();
                    core.note(htm_sim::obs::ObsKind::IrrevocableEnter);
                    let r = self
                        .exec_function(core, prepared, fid, args, None)
                        .await
                        .expect("irrevocable execution cannot abort");
                    let dt = core.now().saturating_sub(t0);
                    // Stamp the exit before the release/stat ops advance the
                    // clock, so the event's [clock - cycles, clock] span is
                    // exactly the lock-held execution window.
                    core.note(htm_sim::obs::ObsKind::IrrevocableExit { cycles: dt });
                    gl.release(core).await;
                    core.record_irrevocable(dt).await;
                    self.stats.irrevocable_txns += 1;
                    return r;
                }
                // Note: the paper's runtime does NOT test the global lock
                // before starting an attempt — transactions subscribe to it
                // only "immediately before attempting to commit". Speculative
                // attempts racing an irrevocable transaction therefore run to
                // completion and waste their work, which is a real (and
                // reproduced) component of the baseline's collapse under heavy
                // contention.
                self.attempt_insts = 0;
                self.attempt_anchors = 0;
                core.tx_begin(ab_id).await;
                self.rt.txn_start(core, ab_id).await;
                match self
                    .exec_function(core, prepared, fid, args, Some(ab_id))
                    .await
                {
                    Ok(v) => {
                        // Subscribe to the global lock immediately before
                        // commit: its line joins our read set, so a racing
                        // irrevocable acquisition dooms us. The two
                        // lazy-subscription policies elide this read — the
                        // unsafe one relies on nothing else (and can commit
                        // torn views of an in-flight fallback writer), the
                        // safe one on the hardware's commit-time validation
                        // of the registered lock word. Hybrid mode has no
                        // stop-the-world writer to subscribe to; safety
                        // comes from the per-access stripe reads instead.
                        let sub = if fallback == FallbackPolicy::Irrevocable {
                            core.tx_load(gl.addr(), GLOBAL_LOCK_SUB_PC).await
                        } else {
                            Ok(0)
                        };
                        match sub {
                            Ok(0) => match core.tx_commit().await {
                                Ok(()) => {
                                    self.rt.on_commit(core, ab_id, attempt).await;
                                    self.stats.committed_txns += 1;
                                    self.stats.committed_insts += self.attempt_insts;
                                    self.stats.committed_anchors += self.attempt_anchors;
                                    return v;
                                }
                                Err(e) => self.handle_abort(core, ab_id, e, attempt).await,
                            },
                            Ok(_held) => {
                                // Global lock held: we must not commit. The
                                // attempt's work is already wasted (the lemming
                                // effect of lazy subscription); spin until the
                                // irrevocable transaction finishes so retries
                                // aren't burned against the same holder.
                                core.tx_abort().await;
                                self.stats.aborted_attempts += 1;
                                self.rt.on_other_abort(core).await;
                                gl.wait_until_free(core, spin).await;
                            }
                            Err(e) => self.handle_abort(core, ab_id, e, attempt).await,
                        }
                    }
                    Err(e) => self.handle_abort(core, ab_id, e, attempt).await,
                }
                attempt += 1;
            }
        })
    }

    /// The hybrid-TM software fallback (Brown & Ravi style): instead of
    /// stopping the world under the global lock, run an *instrumented*
    /// software path whose per-line ownership stripes are visible to
    /// concurrent hardware transactions. The global lock is reused purely
    /// as a software-software mutex (stripe acquisition order is the
    /// execution's encounter order, so two concurrent software
    /// transactions could deadlock without it); hardware transactions do
    /// NOT subscribe to it in this mode and keep committing throughout,
    /// except where they touch a line whose stripe the software
    /// transaction owns.
    fn run_sw_fallback<'a, 'm>(
        &'a mut self,
        core: &'a mut Core<'m>,
        prepared: &'a Prepared,
        fid: FuncId,
        args: &'a [u64],
    ) -> Pin<Box<dyn Future<Output = u64> + Send + 'a>> {
        Box::pin(async move {
            let gl = self.rt.global_lock();
            let spin = self.rt.cfg.lock_spin;
            gl.acquire(core, spin).await;
            let t0 = core.now();
            core.note(htm_sim::obs::ObsKind::IrrevocableEnter);
            self.sw_fallback = true;
            let r = self
                .exec_function(core, prepared, fid, args, None)
                .await
                .expect("software fallback cannot abort");
            self.sw_fallback = false;
            // Releasing the stripes publishes the commit; the window below
            // therefore includes them, like the irrevocable path's stores.
            while let Some(w) = self.sw_stripes.pop() {
                core.nt_store(w, 0).await;
            }
            let dt = core.now().saturating_sub(t0);
            core.note(htm_sim::obs::ObsKind::IrrevocableExit { cycles: dt });
            gl.release(core).await;
            // Software-path completions share the irrevocable counters
            // ("fallback commits"): same role in aborts-per-commit and the
            // %I fraction, and sweep cell schemas stay unchanged.
            core.record_irrevocable(dt).await;
            self.stats.irrevocable_txns += 1;
            r
        })
    }

    /// Per-access instrumentation of the software fallback: read the
    /// line's ownership stripe and claim it on first touch. The claiming
    /// `nt_cas` is a real coherence write, so it dooms every hardware
    /// transaction whose read set holds this stripe. Under the
    /// software-software mutex the stripe is only ever free or ours, but
    /// the charged check-then-claim per access is the point — it is the
    /// hybrid instrumentation cost.
    async fn sw_own(&mut self, core: &mut Core<'_>, addr: Addr) {
        let stripes = self
            .rt
            .shared()
            .hybrid
            .expect("software fallback without a stripe table");
        let word = stripes.lock_addr_for(addr);
        let me = core.tid() as u64 + 1;
        if core.nt_load(word).await != me {
            core.spin(Spin {
                word,
                until: SpinUntil::Claimed { me },
                quantum: self.rt.cfg.lock_spin,
            })
            .await;
            self.sw_stripes.push(word);
        }
    }

    async fn handle_abort(&mut self, core: &mut Core<'_>, ab_id: u32, e: TxError, attempt: u32) {
        self.stats.aborted_attempts += 1;
        let info = e.info();
        match info.cause {
            AbortCause::Conflict => self.rt.on_conflict_abort(core, ab_id, &info, attempt).await,
            AbortCause::Capacity | AbortCause::Explicit | AbortCause::SubscriptionValidation => {
                self.rt.on_other_abort(core).await
            }
        }
        self.rt.backoff(core, attempt).await;
        // Part of the polite retry policy: if an irrevocable transaction is
        // running, retrying against it just burns attempts (its plain
        // stores doom us again) — wait it out. The attempt that was already
        // wasted stays wasted.
        let gl = self.rt.global_lock();
        if gl.is_held(core).await {
            gl.wait_until_free(core, self.rt.cfg.lock_spin).await;
        }
    }

    /// Interpret one function. `tx` is the atomic-block id when running
    /// speculatively; `None` for plain (non-transactional or irrevocable)
    /// execution.
    ///
    /// Dispatches to the interpreter selected by `RuntimeConfig::interp`;
    /// both paths charge identical simulated cycles and statistics, in the
    /// same order relative to the core's gates, so results are
    /// bit-for-bit equal (the bench crate's `interp_equivalence` test
    /// enforces this).
    fn exec_function<'a, 'm>(
        &'a mut self,
        core: &'a mut Core<'m>,
        prepared: &'a Prepared,
        fid: FuncId,
        args: &'a [u64],
        tx: Option<u32>,
    ) -> Pin<Box<dyn Future<Output = Result<u64, TxError>> + Send + 'a>> {
        match self.rt.cfg.interp {
            Interp::Bytecode => self.exec_bytecode(core, prepared, fid, args, tx),
            Interp::Legacy => self.exec_legacy(core, prepared, fid, args, tx),
        }
    }

    /// The fast path: a dense dispatch loop over the pre-decoded µ-op
    /// array — absolute branch targets, inlined register slots, fused
    /// superinstructions (see [`crate::bytecode`]).
    ///
    /// Boxed future: recursive through `OpCode::Call` (and mutually with
    /// [`Self::run_txn`]).
    fn exec_bytecode<'a, 'm>(
        &'a mut self,
        core: &'a mut Core<'m>,
        prepared: &'a Prepared,
        fid: FuncId,
        args: &'a [u64],
        tx: Option<u32>,
    ) -> Pin<Box<dyn Future<Output = Result<u64, TxError>> + Send + 'a>> {
        Box::pin(async move {
            let f: &PreparedFunc = &prepared.funcs[fid.index()];
            let bf: &BytecodeFunc = &prepared.code.funcs[fid.index()];
            debug_assert_eq!(args.len(), f.n_params as usize, "arity in {}", f.name);
            let mut regs = vec![0u64; f.n_regs as usize];
            regs[..args.len()].copy_from_slice(args);
            let mut ip = bf.entry as usize;
            let in_tx = tx.is_some();
            loop {
                let u = bf.uops[ip];
                ip += 1;
                // One cycle + one counted µ-op per op, charged up front as
                // the legacy walk does. ALP-carrying ops defer: the ALP half
                // is not a µ-op (its cost is owned by the runtime), and the
                // fused access half is charged after the ALP returns.
                match u.code {
                    OpCode::AlPoint
                    | OpCode::AlpLoad
                    | OpCode::AlpLoadIdx
                    | OpCode::AlpStore
                    | OpCode::AlpStoreIdx => {}
                    _ => {
                        core.compute(1);
                        self.stats.insts += 1;
                        if in_tx {
                            self.attempt_insts += 1;
                        }
                    }
                }
                match u.code {
                    OpCode::Const => {
                        regs[u.a as usize] = u64::from(u.imm2) << 32 | u64::from(u.imm);
                    }
                    OpCode::Mov => regs[u.a as usize] = regs[u.b as usize],
                    OpCode::Bin => {
                        regs[u.a as usize] = BIN_OPS[u.xop as usize]
                            .eval(regs[u.b as usize], regs[u.c as usize])
                            .unwrap_or_else(|| {
                                panic!("division by zero in {} at pc {:#x}", f.name, u.pc)
                            });
                    }
                    OpCode::Cmp => {
                        regs[u.a as usize] =
                            CMP_OPS[u.xop as usize].eval(regs[u.b as usize], regs[u.c as usize]);
                    }
                    OpCode::Load => {
                        let addr = self.effective(&f.name, regs[u.b as usize], 0, u.imm);
                        regs[u.a as usize] = self.mem_load(core, addr, u.pc, tx).await?;
                    }
                    OpCode::Store => {
                        let addr = self.effective(&f.name, regs[u.b as usize], 0, u.imm);
                        self.mem_store(core, addr, regs[u.a as usize], u.pc, tx)
                            .await?;
                    }
                    OpCode::LoadIdx => {
                        let addr =
                            self.effective(&f.name, regs[u.b as usize], regs[u.c as usize], u.imm);
                        regs[u.a as usize] = self.mem_load(core, addr, u.pc, tx).await?;
                    }
                    OpCode::StoreIdx => {
                        let addr =
                            self.effective(&f.name, regs[u.b as usize], regs[u.c as usize], u.imm);
                        self.mem_store(core, addr, regs[u.a as usize], u.pc, tx)
                            .await?;
                    }
                    OpCode::Gep => {
                        regs[u.a as usize] = regs[u.b as usize]
                            .wrapping_add(regs[u.c as usize].wrapping_add(u64::from(u.imm)) * 8);
                    }
                    OpCode::Alloc => {
                        regs[u.a as usize] = core.alloc(regs[u.b as usize], u.xop != 0).await;
                    }
                    OpCode::Call => {
                        let pool = &bf.arg_pool[u.imm2 as usize..u.imm2 as usize + u.c as usize];
                        let vals: Vec<u64> = pool.iter().map(|&s| regs[s as usize]).collect();
                        let callee = FuncId(u.imm);
                        let r = match prepared.funcs[callee.index()].kind {
                            FuncKind::Atomic { ab_id } => {
                                debug_assert!(tx.is_none(), "nested atomic call");
                                self.run_txn(core, prepared, callee, ab_id, &vals).await
                            }
                            FuncKind::Normal => {
                                self.exec_function(core, prepared, callee, &vals, tx)
                                    .await?
                            }
                        };
                        if u.a != NO_REG {
                            regs[u.a as usize] = r;
                        }
                    }
                    OpCode::Ret => {
                        return Ok(if u.a == NO_REG { 0 } else { regs[u.a as usize] });
                    }
                    OpCode::Br => ip = u.imm as usize,
                    OpCode::CondBr => {
                        ip = if regs[u.a as usize] != 0 {
                            u.imm as usize
                        } else {
                            u.imm2 as usize
                        };
                    }
                    OpCode::Compute => core.compute(u64::from(u.imm)),
                    OpCode::IdleUntil => core.idle_until(regs[u.a as usize]),
                    OpCode::Rand => {
                        let b = regs[u.b as usize];
                        assert!(b > 0, "rand with zero bound in {}", f.name);
                        regs[u.a as usize] = self.rand_below(b);
                    }
                    OpCode::AlPoint => {
                        let idx = if u.b == NO_REG { 0 } else { regs[u.b as usize] };
                        let addr = regs[u.a as usize].wrapping_add((idx + u64::from(u.imm)) * 8);
                        if in_tx {
                            self.attempt_anchors += 1;
                        }
                        self.rt
                            .alpoint(core, tx.unwrap_or(0), u.imm2, addr, in_tx)
                            .await;
                    }
                    OpCode::CmpBr => {
                        // Second constituent: both halves are local, so the
                        // two cycles fold into the same gate either way.
                        core.compute(1);
                        self.stats.insts += 1;
                        if in_tx {
                            self.attempt_insts += 1;
                        }
                        let v =
                            CMP_OPS[u.xop as usize].eval(regs[u.b as usize], regs[u.c as usize]);
                        regs[u.a as usize] = v;
                        ip = if v != 0 {
                            u.imm as usize
                        } else {
                            u.imm2 as usize
                        };
                    }
                    OpCode::LoadCmp | OpCode::LoadBin => {
                        let addr = self.effective(&f.name, regs[u.b as usize], 0, u.imm);
                        // An abort propagates before the use half is
                        // charged, exactly as if the second instruction
                        // never ran.
                        regs[u.a as usize] = self.mem_load(core, addr, u.pc, tx).await?;
                        core.compute(1);
                        self.stats.insts += 1;
                        if in_tx {
                            self.attempt_insts += 1;
                        }
                        // Operands are read from the register file *after*
                        // the load wrote its destination, so aliasing needs
                        // no special casing.
                        let (dst, lhs) = ((u.imm2 & 0xFFFF) as usize, (u.imm2 >> 16) as usize);
                        regs[dst] = if u.code == OpCode::LoadCmp {
                            CMP_OPS[u.xop as usize].eval(regs[lhs], regs[u.c as usize])
                        } else {
                            // Div/Rem are never fused, so eval cannot fail.
                            BIN_OPS[u.xop as usize]
                                .eval(regs[lhs], regs[u.c as usize])
                                .unwrap()
                        };
                    }
                    OpCode::AlpLoad
                    | OpCode::AlpLoadIdx
                    | OpCode::AlpStore
                    | OpCode::AlpStoreIdx => {
                        let indexed = matches!(u.code, OpCode::AlpLoadIdx | OpCode::AlpStoreIdx);
                        let idx = if indexed { regs[u.c as usize] } else { 0 };
                        // ALP half: same address arithmetic as the legacy
                        // AlPoint arm (no null check — that belongs to the
                        // access) and no µ-op charge.
                        let alp_addr =
                            regs[u.b as usize].wrapping_add((idx + u64::from(u.imm)) * 8);
                        if in_tx {
                            self.attempt_anchors += 1;
                        }
                        self.rt
                            .alpoint(core, tx.unwrap_or(0), u.imm2, alp_addr, in_tx)
                            .await;
                        // Access half: charged like any standalone access.
                        core.compute(1);
                        self.stats.insts += 1;
                        if in_tx {
                            self.attempt_insts += 1;
                        }
                        let addr = self.effective(&f.name, regs[u.b as usize], idx, u.imm);
                        if matches!(u.code, OpCode::AlpLoad | OpCode::AlpLoadIdx) {
                            regs[u.a as usize] = self.mem_load(core, addr, u.pc, tx).await?;
                        } else {
                            self.mem_store(core, addr, regs[u.a as usize], u.pc, tx)
                                .await?;
                        }
                    }
                }
            }
        })
    }

    /// The reference path: walk the `Prepared` enum-instruction blocks.
    /// Kept selectable (`--interp legacy`) as the equivalence baseline.
    ///
    /// Boxed future: recursive through `Inst::Call` (and mutually with
    /// [`Self::run_txn`]).
    fn exec_legacy<'a, 'm>(
        &'a mut self,
        core: &'a mut Core<'m>,
        prepared: &'a Prepared,
        fid: FuncId,
        args: &'a [u64],
        tx: Option<u32>,
    ) -> Pin<Box<dyn Future<Output = Result<u64, TxError>> + Send + 'a>> {
        Box::pin(async move {
            let f: &PreparedFunc = &prepared.funcs[fid.index()];
            debug_assert_eq!(args.len(), f.n_params as usize, "arity in {}", f.name);
            let mut regs = vec![0u64; f.n_regs as usize];
            regs[..args.len()].copy_from_slice(args);
            let mut bid = f.entry;

            'blocks: loop {
                let block = &f.blocks[bid.index()];
                for (inst, pc) in block {
                    // One cycle per µ-op, except the ALPoint pseudo-instruction
                    // whose cost is owned by the runtime (zero in baseline mode).
                    if !matches!(inst, Inst::AlPoint { .. }) {
                        core.compute(1);
                        self.stats.insts += 1;
                        if tx.is_some() {
                            self.attempt_insts += 1;
                        }
                    }
                    match *inst {
                        Inst::Const { dst, value } => regs[dst.index()] = value,
                        Inst::Mov { dst, src } => regs[dst.index()] = regs[src.index()],
                        Inst::Bin { op, dst, a, b } => {
                            regs[dst.index()] = op
                                .eval(regs[a.index()], regs[b.index()])
                                .unwrap_or_else(|| {
                                    panic!("division by zero in {} at pc {pc:#x}", f.name)
                                });
                        }
                        Inst::Cmp { op, dst, a, b } => {
                            regs[dst.index()] = op.eval(regs[a.index()], regs[b.index()]);
                        }
                        Inst::Load { dst, base, offset } => {
                            let addr = self.effective(&f.name, regs[base.index()], 0, offset);
                            regs[dst.index()] = self.mem_load(core, addr, *pc, tx).await?;
                        }
                        Inst::Store { src, base, offset } => {
                            let addr = self.effective(&f.name, regs[base.index()], 0, offset);
                            self.mem_store(core, addr, regs[src.index()], *pc, tx)
                                .await?;
                        }
                        Inst::LoadIdx {
                            dst,
                            base,
                            index,
                            offset,
                        } => {
                            let addr = self.effective(
                                &f.name,
                                regs[base.index()],
                                regs[index.index()],
                                offset,
                            );
                            regs[dst.index()] = self.mem_load(core, addr, *pc, tx).await?;
                        }
                        Inst::StoreIdx {
                            src,
                            base,
                            index,
                            offset,
                        } => {
                            let addr = self.effective(
                                &f.name,
                                regs[base.index()],
                                regs[index.index()],
                                offset,
                            );
                            self.mem_store(core, addr, regs[src.index()], *pc, tx)
                                .await?;
                        }
                        Inst::Gep {
                            dst,
                            base,
                            index,
                            offset,
                        } => {
                            regs[dst.index()] = regs[base.index()].wrapping_add(
                                (regs[index.index()].wrapping_add(offset as u64)) * 8,
                            );
                        }
                        Inst::Alloc {
                            dst,
                            words,
                            line_align,
                        } => {
                            regs[dst.index()] = core.alloc(regs[words.index()], line_align).await;
                        }
                        Inst::Call {
                            func,
                            args: ref call_args,
                            dst,
                        } => {
                            let vals: Vec<u64> =
                                call_args.iter().map(|r| regs[r.index()]).collect();
                            let r = match prepared.funcs[func.index()].kind {
                                // A call to an atomic function from plain code
                                // opens a hardware transaction (the verifier
                                // rejects atomic-from-atomic).
                                FuncKind::Atomic { ab_id } => {
                                    debug_assert!(tx.is_none(), "nested atomic call");
                                    self.run_txn(core, prepared, func, ab_id, &vals).await
                                }
                                FuncKind::Normal => {
                                    self.exec_function(core, prepared, func, &vals, tx).await?
                                }
                            };
                            if let Some(d) = dst {
                                regs[d.index()] = r;
                            }
                        }
                        Inst::Ret { val } => {
                            return Ok(val.map_or(0, |r| regs[r.index()]));
                        }
                        Inst::Br { target } => {
                            bid = target;
                            continue 'blocks;
                        }
                        Inst::CondBr {
                            cond,
                            then_b,
                            else_b,
                        } => {
                            bid = if regs[cond.index()] != 0 {
                                then_b
                            } else {
                                else_b
                            };
                            continue 'blocks;
                        }
                        Inst::Compute { cycles } => core.compute(cycles as u64),
                        Inst::IdleUntil { cycle } => core.idle_until(regs[cycle.index()]),
                        Inst::Rand { dst, bound } => {
                            let b = regs[bound.index()];
                            assert!(b > 0, "rand with zero bound in {}", f.name);
                            regs[dst.index()] = self.rand_below(b);
                        }
                        Inst::AlPoint {
                            anchor,
                            base,
                            index,
                            offset,
                        } => {
                            let idx = index.map_or(0, |r| regs[r.index()]);
                            let addr = regs[base.index()].wrapping_add((idx + offset as u64) * 8);
                            if tx.is_some() {
                                self.attempt_anchors += 1;
                            }
                            self.rt
                                .alpoint(core, tx.unwrap_or(0), anchor, addr, tx.is_some())
                                .await;
                        }
                    }
                }
                unreachable!("block without terminator survived verification");
            }
        })
    }

    #[inline]
    fn effective(&self, fname: &str, base: u64, index: u64, offset: u32) -> Addr {
        assert!(base != 0, "null dereference in {fname}");
        base.wrapping_add(index.wrapping_add(offset as u64) * 8)
    }

    /// Hybrid-mode instrumentation of a *hardware* transactional access:
    /// transactionally read the line's ownership stripe — it joins the
    /// read set, so a software fallback's claiming CAS dooms us — and
    /// self-abort if a software transaction owns the line right now.
    async fn hw_stripe_check(&mut self, core: &mut Core<'_>, addr: Addr) -> Result<(), TxError> {
        if let Some(stripes) = self.rt.shared().hybrid {
            let word = stripes.lock_addr_for(addr);
            if core.tx_load(word, HYBRID_STRIPE_SUB_PC).await? != 0 {
                return Err(core.tx_abort().await);
            }
        }
        Ok(())
    }

    async fn mem_load(
        &mut self,
        core: &mut Core<'_>,
        addr: Addr,
        pc: u64,
        tx: Option<u32>,
    ) -> Result<u64, TxError> {
        match tx {
            Some(_) => {
                self.hw_stripe_check(core, addr).await?;
                core.tx_load(addr, pc).await
            }
            None => {
                if self.sw_fallback {
                    self.sw_own(core, addr).await;
                }
                Ok(core.plain_load(addr).await)
            }
        }
    }

    async fn mem_store(
        &mut self,
        core: &mut Core<'_>,
        addr: Addr,
        val: u64,
        pc: u64,
        tx: Option<u32>,
    ) -> Result<(), TxError> {
        match tx {
            Some(_) => {
                self.hw_stripe_check(core, addr).await?;
                core.tx_store(addr, val, pc).await
            }
            None => {
                if self.sw_fallback {
                    self.sw_own(core, addr).await;
                }
                core.plain_store(addr, val).await;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::run::{run_workload, ThreadPlan};
    use htm_sim::{Machine, MachineConfig};
    use stagger_compiler::compile;
    use stagger_core::{Mode, RuntimeConfig};
    use tm_ir::{FuncBuilder, FuncKind, Module};

    /// Run `build` as a single-threaded plain program with `args` and
    /// return the entry function's result.
    fn eval(build: impl FnOnce(&mut Module), args: Vec<u64>) -> (u64, Machine) {
        let mut m = Module::new();
        build(&mut m);
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Staggered),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args,
            }],
            1,
        );
        (out.returns[0], machine)
    }

    #[test]
    fn gep_computes_element_addresses() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
        let base = b.param(0);
        let idx = b.const_(3);
        let p = b.gep(base, idx, 2); // base + (3+2)*8
        b.store_const(77, p, 0);
        b.ret(Some(p));
        m.add_function(b.finish());
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let arr = machine.host_alloc(16, true);
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Htm),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args: vec![arr],
            }],
            1,
        );
        assert_eq!(machine.host_load(arr + 40), 77);
        assert_eq!(out.returns[0], arr + 40);
    }

    #[test]
    fn rand_is_deterministic_per_seed_and_bounded() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let bound = b.param(0);
            let acc = b.const_(0);
            let i = b.const_(0);
            let n = b.const_(50);
            b.while_(
                |b| b.lt(i, n),
                |b| {
                    let r = b.rand(bound);
                    // every draw must be < bound
                    let ok = b.lt(r, bound);
                    let bad = b.eqi(ok, 0);
                    b.if_(bad, |b| b.ret_const(u64::MAX));
                    let s = b.add(acc, r);
                    b.assign(acc, s);
                    let nx = b.addi(i, 1);
                    b.assign(i, nx);
                },
            );
            b.ret(Some(acc));
            m.add_function(b.finish());
        };
        let (a, _) = eval(build, vec![17]);
        assert_ne!(a, u64::MAX, "all draws bounded");
        let build2 = |m: &mut Module| build(m);
        let (b, _) = eval(build2, vec![17]);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    #[should_panic] // "division by zero" on the scoped sim thread
    fn division_by_zero_panics_with_context() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let x = b.param(0);
            let z = b.const_(0);
            let q = b.bin(tm_ir::BinOp::Div, x, z);
            b.ret(Some(q));
            m.add_function(b.finish());
        };
        eval(build, vec![5]);
    }

    #[test]
    #[should_panic] // "null dereference" on the scoped sim thread
    fn null_dereference_panics_with_context() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("thread_main", 0, FuncKind::Normal);
            let z = b.const_(0);
            let v = b.load(z, 0);
            b.ret(Some(v));
            m.add_function(b.finish());
        };
        eval(build, vec![]);
    }

    #[test]
    fn alloc_inside_transaction_yields_usable_memory() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("tx_make", 0, FuncKind::Atomic { ab_id: 0 });
            let p = b.alloc_const(2, true);
            b.store_const(41, p, 0);
            let v = b.load(p, 0);
            let v2 = b.addi(v, 1);
            b.store(v2, p, 1);
            let out = b.load(p, 1);
            b.ret(Some(out));
            let tx = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 0, FuncKind::Normal);
            let r = b.call(tx, &[]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let (r, _) = eval(build, vec![]);
        assert_eq!(r, 42);
    }

    #[test]
    fn nested_normal_calls_return_through_frames() {
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("leaf", 1, FuncKind::Normal);
            let v = b.addi(b.param(0), 1);
            b.ret(Some(v));
            let leaf = m.add_function(b.finish());
            let mut b = FuncBuilder::new("mid", 1, FuncKind::Normal);
            let v = b.call(leaf, &[b.param(0)]);
            let v2 = b.call(leaf, &[v]);
            b.ret(Some(v2));
            let mid = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let r = b.call(mid, &[b.param(0)]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let (r, _) = eval(build, vec![40]);
        assert_eq!(r, 42);
    }

    #[test]
    fn uops_counted_exclude_alpoints() {
        // An atomic block with one anchored access: the ALPoint itself must
        // not inflate the µ-op count.
        let build = |m: &mut Module| {
            let mut b = FuncBuilder::new("tx", 1, FuncKind::Atomic { ab_id: 0 });
            let p = b.param(0);
            let v = b.load(p, 0);
            b.ret(Some(v));
            let tx = m.add_function(b.finish());
            let mut b = FuncBuilder::new("thread_main", 1, FuncKind::Normal);
            let r = b.call(tx, &[b.param(0)]);
            b.ret(Some(r));
            m.add_function(b.finish());
        };
        let mut m = Module::new();
        build(&mut m);
        let compiled = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small());
        let a = machine.host_alloc(8, true);
        let out = run_workload(
            &machine,
            &compiled,
            &RuntimeConfig::with_mode(Mode::Staggered),
            &[ThreadPlan {
                func: compiled.module.expect("thread_main"),
                args: vec![a],
            }],
            1,
        );
        // tx body: load + ret = 2 µ-ops (ALPoint excluded).
        assert_eq!(out.exec.committed_insts, 2);
        assert_eq!(out.exec.committed_anchors, 1);
    }
}
