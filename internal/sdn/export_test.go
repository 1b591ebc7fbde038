package sdn

// The memo's audit predicate and its recorder, for the external tests
// that drive whole fleets.

func RecordMemoQuestions(c *Controller) { c.recordMemoQuestions() }

func AuditMemo(c *Controller) (checked int, bad []string) { return c.auditMemo() }
