package sim

import (
	"fmt"
	"math/bits"

	"xbgas/internal/isa"
)

// Step fetches, decodes and executes one instruction.
func (c *Core) Step() error {
	if c.Halted {
		return ErrHalted
	}
	node := c.Node()
	word := uint32(node.LockedRead(c.PC, 4))
	inst, err := isa.Decode(word)
	if err != nil {
		return c.fault(err)
	}

	nextPC := c.PC + isa.InstBytes
	cost := uint64(costBase)

	rs1 := c.X[inst.Rs1]
	rs2 := c.X[inst.Rs2]

	switch inst.Op {
	case isa.LUI:
		c.setX(inst.Rd, uint64(int64(int32(uint32(inst.Imm)<<12))))
	case isa.AUIPC:
		c.setX(inst.Rd, c.PC+uint64(int64(int32(uint32(inst.Imm)<<12))))

	case isa.JAL:
		c.setX(inst.Rd, nextPC)
		nextPC = c.PC + uint64(inst.Imm)
		cost += costBranchTaken
	case isa.JALR:
		target := (rs1 + uint64(inst.Imm)) &^ 1
		c.setX(inst.Rd, nextPC)
		nextPC = target
		cost += costBranchTaken

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		taken := false
		switch inst.Op {
		case isa.BEQ:
			taken = rs1 == rs2
		case isa.BNE:
			taken = rs1 != rs2
		case isa.BLT:
			taken = int64(rs1) < int64(rs2)
		case isa.BGE:
			taken = int64(rs1) >= int64(rs2)
		case isa.BLTU:
			taken = rs1 < rs2
		case isa.BGEU:
			taken = rs1 >= rs2
		}
		if taken {
			nextPC = c.PC + uint64(inst.Imm)
			cost += costBranchTaken
		}

	case isa.LB, isa.LH, isa.LW, isa.LD, isa.LBU, isa.LHU, isa.LWU:
		addr := rs1 + uint64(inst.Imm)
		v, memCost := c.localLoad(addr, inst.Op)
		cost += memCost
		c.setX(inst.Rd, v)

	case isa.SB, isa.SH, isa.SW, isa.SD:
		addr := rs1 + uint64(inst.Imm)
		cost += c.localStore(addr, inst.Op, rs2)

	case isa.ADDI:
		c.setX(inst.Rd, rs1+uint64(inst.Imm))
	case isa.SLTI:
		c.setX(inst.Rd, boolToU64(int64(rs1) < inst.Imm))
	case isa.SLTIU:
		c.setX(inst.Rd, boolToU64(rs1 < uint64(inst.Imm)))
	case isa.XORI:
		c.setX(inst.Rd, rs1^uint64(inst.Imm))
	case isa.ORI:
		c.setX(inst.Rd, rs1|uint64(inst.Imm))
	case isa.ANDI:
		c.setX(inst.Rd, rs1&uint64(inst.Imm))
	case isa.SLLI:
		c.setX(inst.Rd, rs1<<uint(inst.Imm))
	case isa.SRLI:
		c.setX(inst.Rd, rs1>>uint(inst.Imm))
	case isa.SRAI:
		c.setX(inst.Rd, uint64(int64(rs1)>>uint(inst.Imm)))
	case isa.ADDIW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(inst.Imm)))
	case isa.SLLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<uint(inst.Imm)))
	case isa.SRLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>uint(inst.Imm)))
	case isa.SRAIW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>uint(inst.Imm))))

	case isa.ADD:
		c.setX(inst.Rd, rs1+rs2)
	case isa.SUB:
		c.setX(inst.Rd, rs1-rs2)
	case isa.SLL:
		c.setX(inst.Rd, rs1<<(rs2&63))
	case isa.SLT:
		c.setX(inst.Rd, boolToU64(int64(rs1) < int64(rs2)))
	case isa.SLTU:
		c.setX(inst.Rd, boolToU64(rs1 < rs2))
	case isa.XOR:
		c.setX(inst.Rd, rs1^rs2)
	case isa.SRL:
		c.setX(inst.Rd, rs1>>(rs2&63))
	case isa.SRA:
		c.setX(inst.Rd, uint64(int64(rs1)>>(rs2&63)))
	case isa.OR:
		c.setX(inst.Rd, rs1|rs2)
	case isa.AND:
		c.setX(inst.Rd, rs1&rs2)
	case isa.ADDW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(rs2)))
	case isa.SUBW:
		c.setX(inst.Rd, sext32(uint32(rs1)-uint32(rs2)))
	case isa.SLLW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<(rs2&31)))
	case isa.SRLW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>(rs2&31)))
	case isa.SRAW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>(rs2&31))))

	case isa.MUL:
		cost += costMul
		c.setX(inst.Rd, rs1*rs2)
	case isa.MULH:
		cost += costMul
		hi, _ := bits.Mul64(rs1, rs2)
		// Signed correction of the unsigned high product.
		if int64(rs1) < 0 {
			hi -= rs2
		}
		if int64(rs2) < 0 {
			hi -= rs1
		}
		c.setX(inst.Rd, hi)
	case isa.MULHU:
		cost += costMul
		hi, _ := bits.Mul64(rs1, rs2)
		c.setX(inst.Rd, hi)
	case isa.DIV:
		cost += costDiv
		c.setX(inst.Rd, divS(rs1, rs2))
	case isa.DIVU:
		cost += costDiv
		c.setX(inst.Rd, divU(rs1, rs2))
	case isa.REM:
		cost += costDiv
		c.setX(inst.Rd, remS(rs1, rs2))
	case isa.REMU:
		cost += costDiv
		c.setX(inst.Rd, remU(rs1, rs2))
	case isa.MULW:
		cost += costMul
		c.setX(inst.Rd, sext32(uint32(rs1)*uint32(rs2)))
	case isa.DIVW:
		cost += costDiv
		c.setX(inst.Rd, sext32(uint32(divS32(int32(rs1), int32(rs2)))))
	case isa.DIVUW:
		cost += costDiv
		c.setX(inst.Rd, sext32(divU32(uint32(rs1), uint32(rs2))))
	case isa.REMW:
		cost += costDiv
		c.setX(inst.Rd, sext32(uint32(remS32(int32(rs1), int32(rs2)))))
	case isa.REMUW:
		cost += costDiv
		c.setX(inst.Rd, sext32(remU32(uint32(rs1), uint32(rs2))))

	case isa.FENCE:
		// The functional model is sequentially consistent per core;
		// fence is a timing no-op.

	case isa.ECALL:
		handler := c.Ecall
		if handler == nil {
			handler = defaultEcall
		}
		if err := handler(c); err != nil {
			return c.fault(err)
		}

	case isa.EBREAK:
		c.Halted = true

	// --- xBGAS base-class loads: object ID from the paired e register.
	case isa.ELB, isa.ELH, isa.ELW, isa.ELD, isa.ELBU, isa.ELHU, isa.ELWU:
		objID := c.E[inst.Rs1.Pair()]
		addr := rs1 + uint64(inst.Imm)
		v, memCost, err := c.extendedLoad(objID, addr, inst.Op)
		if err != nil {
			return c.fault(err)
		}
		cost += memCost
		c.setX(inst.Rd, v)

	// --- xBGAS base-class stores.
	case isa.ESB, isa.ESH, isa.ESW, isa.ESD:
		objID := c.E[inst.Rs1.Pair()]
		addr := rs1 + uint64(inst.Imm)
		memCost, err := c.extendedStore(objID, addr, inst.Op, rs2)
		if err != nil {
			return c.fault(err)
		}
		cost += memCost

	// --- xBGAS raw-class loads: erld rd, rs1, ext2.
	case isa.ERLB, isa.ERLH, isa.ERLW, isa.ERLD, isa.ERLBU, isa.ERLHU, isa.ERLWU:
		objID := c.E[inst.ExtRs2()]
		v, memCost, err := c.extendedLoad(objID, rs1, inst.Op)
		if err != nil {
			return c.fault(err)
		}
		cost += memCost
		c.setX(inst.Rd, v)

	// --- xBGAS raw-class stores: ersd rs1, rs2, ext3.
	case isa.ERSB, isa.ERSH, isa.ERSW, isa.ERSD:
		objID := c.E[inst.ExtRd()]
		memCost, err := c.extendedStore(objID, rs2, inst.Op, rs1)
		if err != nil {
			return c.fault(err)
		}
		cost += memCost

	// --- xBGAS extended-register spill/fill (local memory only).
	case isa.ELE: // e[ext1] = mem64[rs1+imm]
		v, memCost := node.Load(rs1+uint64(inst.Imm), 8)
		c.E[inst.ExtRd()] = v
		cost += memCost
	case isa.ESE: // mem64[rs1+imm] = e[ext1]
		cost += node.Store(rs1+uint64(inst.Imm), 8, c.E[inst.ExtRs2()])

	// --- xBGAS address management.
	case isa.EADDI: // x[rd] = e[ext1] + imm
		c.setX(inst.Rd, c.E[inst.ExtRs1()]+uint64(inst.Imm))
	case isa.EADDIE: // e[ext1] = x[rs1] + imm
		c.E[inst.ExtRd()] = rs1 + uint64(inst.Imm)
	case isa.EADDIX: // e[ext1] = e[ext2] + imm
		c.E[inst.ExtRd()] = c.E[inst.ExtRs1()] + uint64(inst.Imm)

	default:
		return c.fault(fmt.Errorf("unimplemented op %s", inst.Op))
	}

	prevPC := c.PC
	c.PC = nextPC
	c.Cycles += cost
	c.Instret++
	if c.trace != nil {
		c.trace(c, prevPC, inst)
	}
	return nil
}

// localLoad performs a timed load from the core's own node.
func (c *Core) localLoad(addr uint64, op isa.Op) (uint64, uint64) {
	raw, cost := c.Node().Load(addr, op.MemWidth())
	return extendLoad(raw, op), cost
}

// localStore performs a timed store to the core's own node.
func (c *Core) localStore(addr uint64, op isa.Op, v uint64) uint64 {
	return c.Node().Store(addr, op.MemWidth(), v)
}

// extendedLoad implements the xBGAS load semantics of paper §3.2: an
// object ID of zero performs a local access; otherwise the OLB
// translates the ID to a node and the value is fetched remotely. The
// returned cost covers the request/response round trip on the fabric.
func (c *Core) extendedLoad(objID uint64, addr uint64, op isa.Op) (uint64, uint64, error) {
	if objID == 0 {
		v, cost := c.localLoad(addr, op)
		return v, cost, nil
	}
	entry, hit, err := c.Node().OLB.Translate(objID)
	if err != nil {
		return 0, 0, err
	}
	width := op.MemWidth()
	var cost uint64
	if !hit {
		cost += costOLBMiss
	}
	// Request (address packet) out, response (data) back.
	now := c.Cycles + cost
	t1, err := c.m.Fabric.Send(c.node, entry.Node, 8, now)
	if err != nil {
		return 0, 0, err
	}
	t2, err := c.m.Fabric.Send(entry.Node, c.node, width, t1)
	if err != nil {
		return 0, 0, err
	}
	cost += t2 - now
	raw := c.m.Nodes[entry.Node].LockedRead(entry.Base+addr, width)
	c.RemoteLoads++
	if c.obsTrack != nil || c.obsMet != nil {
		c.obsRemote(false, cost, entry.Node, width)
	}
	return extendLoad(raw, op), cost, nil
}

// extendedStore implements the xBGAS store semantics: local when the
// object ID is zero, otherwise a one-way remote write. The blocking cost
// covers delivery at the target (the paper's runtime issues a barrier
// for completion ordering across PEs).
func (c *Core) extendedStore(objID uint64, addr uint64, op isa.Op, v uint64) (uint64, error) {
	if objID == 0 {
		return c.localStore(addr, op, v), nil
	}
	entry, hit, err := c.Node().OLB.Translate(objID)
	if err != nil {
		return 0, err
	}
	width := op.MemWidth()
	var cost uint64
	if !hit {
		cost += costOLBMiss
	}
	now := c.Cycles + cost
	t1, err := c.m.Fabric.Send(c.node, entry.Node, 8+width, now)
	if err != nil {
		return 0, err
	}
	cost += t1 - now
	c.m.Nodes[entry.Node].LockedWrite(entry.Base+addr, width, v)
	c.RemoteStores++
	if c.obsTrack != nil || c.obsMet != nil {
		c.obsRemote(true, cost, entry.Node, width)
	}
	return cost, nil
}

// extendLoad sign- or zero-extends a raw loaded value per the op.
func extendLoad(raw uint64, op isa.Op) uint64 {
	width := op.MemWidth()
	if width == 8 || op.MemUnsigned() {
		return raw
	}
	shift := uint(64 - 8*width)
	return uint64(int64(raw<<shift) >> shift)
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RISC-V division semantics: divide-by-zero returns all ones (div) or the
// dividend (rem); signed overflow returns the dividend / zero remainder.
func divS(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	x, y := int64(a), int64(b)
	if x == -1<<63 && y == -1 {
		return a
	}
	return uint64(x / y)
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	x, y := int64(a), int64(b)
	if x == -1<<63 && y == -1 {
		return 0
	}
	return uint64(x % y)
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func divS32(a, b int32) int32 {
	if b == 0 {
		return -1
	}
	if a == -1<<31 && b == -1 {
		return a
	}
	return a / b
}

func divU32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func remS32(a, b int32) int32 {
	if b == 0 {
		return a
	}
	if a == -1<<31 && b == -1 {
		return 0
	}
	return a % b
}

func remU32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}
