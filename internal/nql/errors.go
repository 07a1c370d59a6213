package nql

import "fmt"

// SyntaxError reports malformed NQL source with a 1-based line number. The
// benchmark's error classifier maps it to the paper's "Syntax error" class.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("nql syntax error on line %d: %s", e.Line, e.Msg)
}

// ErrClass categorizes runtime failures; the classes mirror the paper's
// Table 5 error taxonomy so failures of generated code can be bucketed.
type ErrClass string

// Runtime error classes.
const (
	ErrName     ErrClass = "name"      // unknown variable or function (imaginary functions/files)
	ErrAttr     ErrClass = "attribute" // imaginary graph/node/edge attribute or object member
	ErrArg      ErrClass = "argument"  // wrong number or type of call arguments
	ErrOp       ErrClass = "operation" // unsupported operation on operand types
	ErrIndex    ErrClass = "index"     // index out of range / bad key
	ErrValue    ErrClass = "value"     // domain error (e.g. negative k)
	ErrLimit    ErrClass = "limit"     // sandbox resource budget exceeded
	ErrCancel   ErrClass = "cancelled" // host context cancelled or its deadline passed
	ErrInternal ErrClass = "internal"
)

// RuntimeError is a categorized NQL execution failure. Cause, when set,
// carries the underlying host error (e.g. context.Canceled) for
// errors.Is/As without perturbing the rendered message.
type RuntimeError struct {
	Class ErrClass
	Line  int
	Msg   string
	Cause error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("nql %s error on line %d: %s", e.Class, e.Line, e.Msg)
}

// Unwrap exposes the underlying cause to errors.Is/As (nil for most
// runtime errors).
func (e *RuntimeError) Unwrap() error { return e.Cause }

func errf(class ErrClass, line int, format string, args ...any) *RuntimeError {
	return &RuntimeError{Class: class, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// CancelError builds the ErrCancel-class error surfaced when a host
// context is cancelled mid-run. The VM and every cancellable host binding
// construct it the same way, so the rendered message depends only on the
// cause; errors.Is sees the cause.
func CancelError(line int, cause error) *RuntimeError {
	return &RuntimeError{Class: ErrCancel, Line: line, Msg: "query cancelled: " + cause.Error(), Cause: cause}
}

func cancelErr(line int, cause error) *RuntimeError { return CancelError(line, cause) }

// ClassOf extracts the error class from an error, defaulting to internal.
// Syntax errors report class "syntax".
func ClassOf(err error) string {
	switch e := err.(type) {
	case *RuntimeError:
		return string(e.Class)
	case *SyntaxError:
		return "syntax"
	default:
		return string(ErrInternal)
	}
}
