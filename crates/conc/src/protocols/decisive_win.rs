//! The portfolio's first-decisive-result-wins handshake
//! (`crates/portfolio/src/lib.rs`): every finishing engine first loads
//! `race_claimed` and, if the race is already claimed, gives up its claim
//! without running the certificate check (the post-win early exit). An
//! engine that still sees the race open and has a decisive result does
//! `race_claimed.swap(true)` and treats `false` as having won the race. The
//! property: **exactly one** engine ever claims the win, no matter the
//! interleaving.
//!
//! The correct variant uses Relaxed operations — RMW atomicity on the single
//! flag is all the protocol needs, because the winner's identity travels to
//! the caller through the reports mutex, not through this flag. The early
//! exit cannot lose the race: an engine only skips its claim after reading
//! the store of a swap that won. The model check here is the proof cited by
//! the `// ordering:` comments at the `race_claimed` sites.
//!
//! The broken variant keeps the early exit but replaces the swap with a
//! load-then-store claim; the checker must find the double-win schedule.

use crate::model::{explore, Ctx, Exec, Ord, Report, System, Violation};

const RACE: usize = 0;
const ENGINES: usize = 3;
/// Program counter of an engine that has finished its claim attempt.
const DONE: u8 = 3;

#[derive(Clone, PartialEq, Eq, Hash)]
struct DecisiveWin {
    broken: bool,
    pc: [u8; ENGINES],
    won: [bool; ENGINES],
}

impl DecisiveWin {
    fn new(broken: bool) -> DecisiveWin {
        DecisiveWin {
            broken,
            pc: [0; ENGINES],
            won: [false; ENGINES],
        }
    }
}

impl System for DecisiveWin {
    fn threads(&self) -> usize {
        ENGINES
    }
    fn locs(&self) -> usize {
        1
    }
    fn done(&self, tid: usize) -> bool {
        self.pc[tid] >= DONE
    }
    fn step(&mut self, tid: usize, ctx: &mut Ctx<'_>) {
        match self.pc[tid] {
            0 => {
                // Early exit: race_claimed.load(Relaxed) — a claimed race
                // is given up without checking or claiming.
                if ctx.load(RACE, Ord::Relaxed) != 0 {
                    self.pc[tid] = DONE;
                    return;
                }
                self.pc[tid] = 1;
            }
            1 if !self.broken => {
                // claimed_win = !race_claimed.swap(true, Relaxed)
                self.won[tid] = ctx.swap(RACE, 1, Ord::Relaxed) == 0;
                self.pc[tid] = DONE;
            }
            1 => {
                let unclaimed = ctx.load(RACE, Ord::Relaxed) == 0;
                self.pc[tid] = if unclaimed { 2 } else { DONE };
            }
            2 => {
                ctx.store(RACE, 1, Ord::Relaxed);
                self.won[tid] = true;
                self.pc[tid] = DONE;
            }
            _ => unreachable!("stepped a finished engine"),
        }
    }
    fn invariant(&self, _exec: &Exec) -> Result<(), String> {
        let winners = self.won.iter().filter(|w| **w).count();
        if winners > 1 {
            return Err(format!("{winners} engines claimed the decisive win"));
        }
        Ok(())
    }
    fn finalize(&self, _exec: &Exec) -> Result<(), String> {
        let winners = self.won.iter().filter(|w| **w).count();
        if winners != 1 {
            return Err(format!("expected exactly one winner, got {winners}"));
        }
        Ok(())
    }
}

/// Early-exit load plus Relaxed swap: exactly one winner across all
/// interleavings.
pub fn check_correct() -> Result<Report, Violation> {
    explore(DecisiveWin::new(false))
}

/// Early-exit load plus load-then-store claim: the checker must find a
/// two-winner schedule.
pub fn check_broken() -> Result<Report, Violation> {
    explore(DecisiveWin::new(true))
}
