package nql

// Effect is the static effect summary the semantic analyzer
// (internal/nql/analysis) stamps on lambda expressions. It is a bitset so
// independent guarantees compose; the zero value means "not analyzed",
// which every consumer must treat as "may do anything".
//
// The bits are *proofs*, not hints: a set bit is only stamped when the
// analyzer can show the property holds for every execution of the lambda
// body (given the bit's argument assumption). A consumer that relaxes
// behavior on the strength of a bit may do so without a dynamic re-check;
// none does yet.
type Effect uint32

const (
	// EffectPure: evaluating the lambda body performs no observable side
	// effect — no print, no mutation of arguments or captured state, no
	// calls except to builtins themselves known pure.
	EffectPure Effect = 1 << iota

	// EffectTotal: the body cannot fail for arguments of any type. Like
	// EffectRowTotal, this excludes the sandbox's resource budget (step,
	// wall-clock and cancellation checkpoints), which is accounted to the
	// whole run, not the expression.
	EffectTotal

	// EffectRowTotal: the body cannot fail when every parameter is bound
	// to a map — the calling convention of federate.FuncPred, whose rows
	// are *nql.Map. Implied by EffectTotal; stamped separately because
	// predicates routinely use map-shaped operations (get(row, k, d))
	// that are only total once the argument is known to be a map.
	EffectRowTotal
)

// Pure reports the EffectPure bit.
func (e Effect) Pure() bool { return e&EffectPure != 0 }

// RowTotal reports whether the lambda cannot fail on map arguments
// (either totality bit suffices).
func (e Effect) RowTotal() bool { return e&(EffectTotal|EffectRowTotal) != 0 }

// SetEffect records the analyzer's effect summary on the lambda. Safe for
// concurrent use with Effect(): programs live in shared caches, so a late
// analysis pass may race with an execution reading the stamp — the reader
// then sees either the proof or the conservative zero.
func (x *LambdaExpr) SetEffect(e Effect) { x.eff.Store(uint32(e)) }

// Effect returns the stamped effect summary (zero when never analyzed).
func (x *LambdaExpr) Effect() Effect { return Effect(x.eff.Load()) }

// Effect reports the static effect stamped on the closure's source
// lambda. Named functions and closures from unanalyzed programs report
// zero.
func (c *Closure) Effect() Effect {
	if c.proto.lambda != nil {
		return c.proto.lambda.Effect()
	}
	return 0
}

// NumParams reports the closure's parameter count.
func (c *Closure) NumParams() int { return c.proto.nparams }
